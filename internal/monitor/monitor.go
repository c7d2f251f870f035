// Package monitor turns CSnake's incremental beam search into a
// continuous online detector: it ingests an externally produced trace
// stream (JSONL edge-observation records -- a replayed campaign export
// or a live feed), folds it into a decaying evidence window over a
// causal graph, and runs the incremental cycle search after every
// batch, alerting on newly closed and newly broken self-sustaining
// cycles.
//
// Data flow:
//
//	stream -> parse (tolerant, torn lines counted+skipped)
//	       -> graph.Window (time-bucketed decay, rebuild-by-replay)
//	       -> graph.Delta  (implicit: the window's live graph grows)
//	       -> beam.Incremental (reset on window rebuilds)
//	       -> signature diff -> Alert callbacks
//
// Equivalence contract: with a window spanning the whole stream, the
// monitor's active cycle signatures after replaying a campaign's
// exported trace are byte-identical to an offline beam.SearchGraph over
// that campaign's final graph -- for any batching of the stream. The
// monitor package's tests pin this wall.
package monitor

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/core/beam"
	"repro/internal/core/graph"
	"repro/internal/faults"
)

// Config tunes a Monitor.
type Config struct {
	// Window is the evidence retention span: edge observations older
	// than this (by their stream timestamps) decay out of the graph.
	// 0 retains everything -- the replay-equivalence configuration.
	Window time.Duration
	// Buckets is the decay granularity (default 8): evidence expires a
	// bucket (Window/Buckets) at a time.
	Buckets int
	// Beam configures the cycle search (zero value = campaign defaults).
	Beam beam.Options
	// MaxLineBytes bounds one trace line (default 1 MiB); longer lines
	// are counted as skipped and discarded, like torn journal records.
	MaxLineBytes int
	// OnAlert, when set, receives every alert as it fires, in order,
	// from inside the ingesting call.
	OnAlert func(Alert)
}

func (c *Config) defaults() {
	if c.Buckets < 1 {
		c.Buckets = 8
	}
	if c.MaxLineBytes <= 0 {
		c.MaxLineBytes = 1 << 20
	}
}

// Alert is one cycle transition: a self-sustaining cycle newly closed
// by the evidence (kind "closed") or one that stopped being reported
// because its evidence decayed or was contradicted (kind "broken").
type Alert struct {
	Kind      string   `json:"kind"` // "closed" or "broken"
	Signature string   `json:"signature"`
	Cycle     string   `json:"cycle,omitempty"` // human-readable rendering
	Score     float64  `json:"score,omitempty"`
	Faults    []string `json:"faults,omitempty"` // injected faults on the cycle
	Len       int      `json:"len,omitempty"`    // edges on the cycle
	Seq       int64    `json:"seq"`              // per-monitor alert sequence
	Records   int64    `json:"records"`          // records ingested when it fired
}

// Stats is a point-in-time snapshot of a monitor's counters.
type Stats struct {
	System       string `json:"system,omitempty"`
	Records      int64  `json:"records"` // parsed + applied records
	Edges        int64  `json:"edges"`   // dynamic edge observations admitted
	Statics      int64  `json:"statics"`
	Marks        int64  `json:"marks"`
	Skipped      int64  `json:"skipped"` // malformed/oversized lines
	Stale        int64  `json:"stale"`   // edges older than the window
	Batches      int64  `json:"batches"`
	Alerts       int64  `json:"alerts"`
	CyclesActive int    `json:"cyclesActive"`
	Rebuilds     int    `json:"rebuilds"` // window evictions (graph replays)
	Evicted      int    `json:"evicted"`  // observations expired
	Retained     int    `json:"retained"` // observations currently windowed
}

// BatchResult summarizes one ingested batch.
type BatchResult struct {
	Records int64   `json:"records"`
	Skipped int64   `json:"skipped"`
	Stale   int64   `json:"stale,omitempty"`
	Alerts  []Alert `json:"alerts,omitempty"`
	// CyclesActive is the size of the reported cycle set after the batch.
	CyclesActive int `json:"cyclesActive"`
}

// Monitor is one online detector instance. Safe for concurrent use;
// batches are serialized internally.
type Monitor struct {
	cfg Config

	mu     sync.Mutex
	win    *graph.Window
	inc    *beam.Incremental
	known  map[string]beam.Cycle // active cycles by signature
	cycles []beam.Cycle          // last search result, report order

	system      string
	pinnedNests int
	alertSeq    int64
	stats       Stats
}

// New builds a monitor from cfg.
func New(cfg Config) *Monitor {
	cfg.defaults()
	return &Monitor{
		cfg:   cfg,
		win:   graph.NewWindow(cfg.Window, cfg.Buckets),
		inc:   beam.NewIncremental(cfg.Beam),
		known: make(map[string]beam.Cycle),
	}
}

// Ingest parses one batch of JSONL trace records from r, folds them
// into the evidence window, runs the incremental cycle search, and
// returns the batch summary including any alerts it fired. Malformed,
// truncated, and oversized lines are counted and skipped -- only a
// reader error is returned, after applying everything read so far.
func (m *Monitor) Ingest(r io.Reader) (BatchResult, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var res BatchResult
	rebuilt := false
	scanErr := scanLines(r, m.cfg.MaxLineBytes, func(line []byte, oversize bool) {
		if oversize {
			res.Skipped++
			return
		}
		rec, err := decodeRecord(line)
		if err != nil {
			res.Skipped++
			return
		}
		res.Records++
		switch rec.T {
		case "hello":
			m.system = rec.System
			m.win.SetSystem(rec.System)
		case "static":
			m.win.AddStatic(rec.Edge.fcaEdge())
			m.stats.Statics++
		case "nest":
			m.win.SetNestGroup(faults.ID(rec.Fault), rec.Group)
		case "score":
			m.win.SetScore(faults.ID(rec.Fault), rec.Score)
		case "mark":
			m.stats.Marks++
		case "edge":
			at := time.Unix(0, rec.AtMS*int64(time.Millisecond))
			ok, rb := m.win.Observe(rec.Edge.fcaEdge(), at)
			if rb {
				rebuilt = true
			}
			if ok {
				m.stats.Edges++
			} else {
				res.Stale++
			}
		}
	})
	m.stats.Records += res.Records
	m.stats.Skipped += res.Skipped
	m.stats.Stale += res.Stale
	m.stats.Batches++
	res.Alerts = m.searchLocked(rebuilt)
	res.CyclesActive = len(m.cycles)
	return res, scanErr
}

// searchLocked runs the incremental search over the window's graph and
// diffs the reported signature set against the previous batch, firing
// alerts for every transition. Closed alerts follow the search's
// deterministic report order; broken alerts sort by signature.
func (m *Monitor) searchLocked(rebuilt bool) []Alert {
	m.win.Annotate()
	g := m.win.Graph()
	if n := g.NumNestGroups(); rebuilt || n != m.pinnedNests {
		// A rebuilt graph voids the searcher's watermarks; a grown nest
		// family set voids its pinned filter. Either way a reset re-primes
		// the next search from scratch, which is always exact.
		m.inc.Reset()
		m.pinnedNests = n
	}
	cycles := m.inc.Search(g, nil)
	cur := make(map[string]beam.Cycle, len(cycles))
	var alerts []Alert
	for _, c := range cycles {
		sig := c.Signature()
		cur[sig] = c
		if _, ok := m.known[sig]; !ok {
			alerts = append(alerts, m.alertLocked("closed", sig, c))
		}
	}
	var gone []string
	for sig := range m.known {
		if _, ok := cur[sig]; !ok {
			gone = append(gone, sig)
		}
	}
	sort.Strings(gone)
	for _, sig := range gone {
		alerts = append(alerts, m.alertLocked("broken", sig, m.known[sig]))
	}
	m.known = cur
	m.cycles = cycles
	m.stats.Alerts += int64(len(alerts))
	if m.cfg.OnAlert != nil {
		for _, a := range alerts {
			m.cfg.OnAlert(a)
		}
	}
	return alerts
}

func (m *Monitor) alertLocked(kind, sig string, c beam.Cycle) Alert {
	m.alertSeq++
	fids := c.Faults()
	fs := make([]string, len(fids))
	for i, f := range fids {
		fs[i] = string(f)
	}
	return Alert{
		Kind:      kind,
		Signature: sig,
		Cycle:     c.String(),
		Score:     c.Score,
		Faults:    fs,
		Len:       len(c.Edges),
		Seq:       m.alertSeq,
		Records:   m.stats.Records,
	}
}

// Stats returns a snapshot of the monitor's counters.
func (m *Monitor) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.stats
	s.System = m.system
	s.CyclesActive = len(m.cycles)
	s.Rebuilds = m.win.Rebuilds()
	s.Evicted = m.win.Evicted()
	s.Retained = m.win.Retained()
	return s
}

// Cycles returns the currently reported cycle set, in report order.
func (m *Monitor) Cycles() []beam.Cycle {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]beam.Cycle(nil), m.cycles...)
}

// Signatures returns the active cycle signatures, sorted.
func (m *Monitor) Signatures() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.known))
	for sig := range m.known {
		out = append(out, sig)
	}
	sort.Strings(out)
	return out
}

// scanLines feeds r to fn one newline-terminated line at a time, lines
// longer than max reported as oversize (content discarded) -- the
// streaming analogue of the journal's torn-tail tolerance. A final
// unterminated line is still delivered; only reader errors propagate.
func scanLines(r io.Reader, max int, fn func(line []byte, oversize bool)) error {
	if max < 32 {
		max = 32
	}
	br := bufio.NewReaderSize(r, max)
	for {
		line, err := br.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) {
			fn(nil, true)
			for errors.Is(err, bufio.ErrBufferFull) {
				_, err = br.ReadSlice('\n')
			}
			if errors.Is(err, io.EOF) {
				return nil
			}
			if err != nil {
				return err
			}
			continue
		}
		if trimmed := bytes.TrimSpace(line); len(trimmed) > 0 {
			fn(trimmed, false)
		}
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
	}
}
