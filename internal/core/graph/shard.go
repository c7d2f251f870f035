package graph

import (
	"repro/internal/core/fca"
	"repro/internal/trace"
)

// Shard is a private, lock-free accumulation buffer for one worker's
// slice of a wave: the parallel executor folds each experiment's edges
// and marks into its own Shard with no shared state, then the wave-seal
// step replays every shard into the campaign Graph -- in deterministic
// experiment order, under the driver lock -- via MergeShard.
//
// The expensive per-occurrence work (canonicalising stacks and branch
// vectors into their intern-key strings, see occKeys) happens here, on
// the worker, outside any lock. MergeShard then replays the exact
// Add/Mark call sequence the serial path would have issued, reusing the
// precomputed strings: the intern tables, raw sequence numbers, OccCap
// evidence merges, and Prefix snapshots all come out byte-identical to
// serial accumulation, while the critical section shrinks to map
// lookups and appends.
//
// A Shard is not safe for concurrent use; each worker owns its own.
type Shard struct {
	ops []shardOp
}

type shardOp struct {
	mark bool // a Mark boundary; edge fields unused
	edge fca.Edge
	// Key strings aligned 1:1 with edge.FromState.Occ / ToState.Occ.
	// nil for static edges (rare; replayed through addStatic as-is).
	fromKeys, toKeys []occKeyStrings
}

// Add buffers one edge, precomputing its occurrence key strings.
func (s *Shard) Add(e fca.Edge) {
	op := shardOp{edge: e}
	if !e.Kind.Static() {
		op.fromKeys = precomputeKeys(e.FromState.Occ)
		op.toKeys = precomputeKeys(e.ToState.Occ)
	}
	s.ops = append(s.ops, op)
}

// AddAll buffers a batch of edges in order.
func (s *Shard) AddAll(edges []fca.Edge) {
	for _, e := range edges {
		s.Add(e)
	}
}

// Mark buffers an experiment boundary.
func (s *Shard) Mark() {
	s.ops = append(s.ops, shardOp{mark: true})
}

// Ops returns the number of buffered operations (edges + marks).
func (s *Shard) Ops() int { return len(s.ops) }

func precomputeKeys(occ []trace.Occurrence) []occKeyStrings {
	if len(occ) == 0 {
		return nil
	}
	out := make([]occKeyStrings, len(occ))
	for i, o := range occ {
		out[i].stack, out[i].full = occKeys(o)
	}
	return out
}

// MergeShard replays a worker shard into g under the caller's lock
// discipline, issuing exactly the Add/Mark sequence the serial path
// would have: one raw sequence number per dynamic edge, evidence merged
// under trace.OccCap, key strings interned only for accepted
// occurrences (and in the same order), static edges routed to the
// static section. Replaying shards in deterministic experiment order
// therefore yields a graph byte-identical to serial accumulation.
func (g *Graph) MergeShard(s *Shard) {
	g.mutable("MergeShard")
	for i := range s.ops {
		op := &s.ops[i]
		switch {
		case op.mark:
			g.marks = append(g.marks, g.seq)
		case op.edge.Kind.Static():
			g.addStatic(op.edge)
		default:
			g.add(&op.edge, op.fromKeys, op.toKeys)
		}
	}
}
