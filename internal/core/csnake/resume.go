// This file is the campaign-resume entry point: an anytime campaign can
// emit a Checkpoint after every sealed round (WithCheckpoints) and a
// later campaign of the same configuration can restart from one
// (WithResume), re-driving the schedule, RNG, and causal graph from the
// checkpointed position. The determinism contract extends across the
// interruption: a resumed campaign's final Report is byte-identical to
// the report of a campaign that was never interrupted.

package csnake

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/core/alloc"
	"repro/internal/core/graph"
	"repro/internal/harness"
)

// CheckpointSchema is the version stamped into emitted checkpoints;
// WithResume rejects any other value.
const CheckpointSchema = 1

// ErrResume wraps every checkpoint-rejection error: the checkpoint does
// not match the campaign (wrong system, seed, schema, or protocol
// shape), or is internally inconsistent. Callers that persist
// checkpoints opportunistically should treat ErrResume as "discard the
// checkpoint and re-run from scratch", not as a campaign failure.
var ErrResume = errors.New("csnake: resume checkpoint rejected")

// Checkpoint is a round-granular snapshot of a running anytime campaign:
// everything needed to re-drive it from the end of round Rounds. It is
// pure data, stable under JSON round trips.
type Checkpoint struct {
	Schema int    `json:"schema"`
	System string `json:"system"`
	Seed   int64  `json:"seed"`

	// Rounds is the number of sealed rounds; Sims the cumulative
	// simulation count and RNGDraws the RNG position at that boundary.
	Rounds   int   `json:"rounds"`
	Sims     int   `json:"sims"`
	RNGDraws int64 `json:"rngDraws"`

	// Stable and LastFingerprint carry the early-stop convergence state.
	Stable          int    `json:"stable,omitempty"`
	LastFingerprint string `json:"lastFingerprint,omitempty"`

	// Schedule is the allocation schedule's planning position.
	Schedule *alloc.ScheduleState `json:"schedule"`

	// Graph is the round-sealed causal graph (graph JSON schema).
	Graph json.RawMessage `json:"graph"`
}

// WithCheckpoints installs a per-round checkpoint sink on an anytime
// campaign: after every sealed round fn receives a Checkpoint resuming
// at that round. fn runs on the campaign goroutine between rounds --
// persistence cost directly lengthens the round. Batch campaigns emit
// no checkpoints (they re-run from scratch deterministically).
func WithCheckpoints(fn func(*Checkpoint)) Option {
	return func(c *Campaign) { c.ckptFn = fn }
}

// WithResume restarts the campaign from cp instead of from scratch. The
// campaign must be anytime-shaped and configured identically to the one
// that emitted cp (same system, seed, protocol, budget); Run returns an
// error wrapping ErrResume otherwise. nil is a no-op.
func WithResume(cp *Checkpoint) Option {
	return func(c *Campaign) { c.resume = cp }
}

// resumeErr tags an error as a checkpoint rejection.
func resumeErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrResume, fmt.Sprintf(format, args...))
}

// adoptResume validates cp against the campaign and installs the
// checkpointed graph into the driver. It runs before the scheduler is
// built (the adaptive protocol's weight hook probes the driver's graph).
func (c *Campaign) adoptResume(cp *Checkpoint, cfg Config, driver *harness.Driver) error {
	if cp.Schema != CheckpointSchema {
		return resumeErr("schema %d (want %d)", cp.Schema, CheckpointSchema)
	}
	if cp.System != c.sys.Name() {
		return resumeErr("checkpoint for system %q, campaign targets %q", cp.System, c.sys.Name())
	}
	if cp.Seed != cfg.Seed {
		return resumeErr("checkpoint seed %d, campaign seed %d", cp.Seed, cfg.Seed)
	}
	if cp.Schedule == nil {
		return resumeErr("checkpoint has no schedule state")
	}
	if cp.Rounds < 0 || cp.Sims < 0 || cp.RNGDraws < 0 {
		return resumeErr("negative cursor (rounds %d, sims %d, draws %d)", cp.Rounds, cp.Sims, cp.RNGDraws)
	}
	g := graph.New()
	if err := g.UnmarshalJSON(cp.Graph); err != nil {
		return resumeErr("graph: %v", err)
	}
	if err := driver.AdoptGraph(g); err != nil {
		return resumeErr("%v", err)
	}
	return nil
}

// checkpointOf seals the campaign's position after a round: schedule
// state, RNG draw count, cumulative sims, convergence counters, and the
// serialized graph.
func checkpointOf(c *Campaign, cfg Config, driver *harness.Driver, sched alloc.Scheduler,
	src *alloc.CountedSource, rounds, stable int, lastFP string) (*Checkpoint, error) {

	gb, err := json.Marshal(driver.Graph())
	if err != nil {
		return nil, err
	}
	return &Checkpoint{
		Schema:          CheckpointSchema,
		System:          c.sys.Name(),
		Seed:            cfg.Seed,
		Rounds:          rounds,
		Sims:            driver.SimCount(),
		RNGDraws:        src.Draws(),
		Stable:          stable,
		LastFingerprint: lastFP,
		Schedule:        sched.ExportState(),
		Graph:           gb,
	}, nil
}
