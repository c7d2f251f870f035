// Package service is the csnaked campaign server: campaigns become
// long-running jobs executed under one shared simulation budget, round
// progress streams to subscribers while detection is still running, and
// the causal graphs campaigns accumulate become served, mergeable
// artifacts.
//
// The package splits by file:
//
//   - api.go: the wire types (campaign specs, job status, stream events,
//     merge requests) and their resolution into campaign options;
//   - jobs.go: the job manager -- a priority queue of campaign jobs over
//     a bounded worker-token pool, with per-job cancellation, crash
//     isolation, retries, and the one state-transition function;
//   - events.go: the subscriber fan-out that job events and monitor
//     alerts share, and the SSE writer of both stream endpoints;
//   - journal.go + recovery.go: durability -- the fsynced job journal
//     with its side files, and the boot-time replay;
//   - store.go: the graph artifact store (persisted schema-v1 graph
//     JSON, served and merged by id);
//   - monitors.go: online cascade monitors -- internal/monitor engines
//     ingesting JSONL trace batches over HTTP, alerting over SSE;
//   - server.go + metrics.go: the HTTP surface (REST + SSE + /metrics).
package service

import (
	"fmt"
	"time"

	"repro/internal/core/csnake"
	"repro/internal/monitor"
	"repro/internal/report"
	"repro/internal/systems/sysreg"
)

// CampaignSpec is the POST /v1/campaigns request body: a declarative
// campaign description the job manager resolves into csnake options.
// Zero values mean "campaign default" throughout.
type CampaignSpec struct {
	// System is a registered system name or alias (required).
	System string `json:"system"`
	// Seed is the campaign seed (nil = default 42; distinct from zero,
	// which is a legitimate seed).
	Seed *int64 `json:"seed,omitempty"`
	// Reps is the seeds-per-configuration repetition count.
	Reps int `json:"reps,omitempty"`
	// BudgetFactor scales |F| into the experiment budget.
	BudgetFactor int `json:"budgetFactor,omitempty"`
	// DelayMagnitudesMS is the delay-injection magnitude sweep, in
	// milliseconds.
	DelayMagnitudesMS []int64 `json:"delayMagnitudesMs,omitempty"`
	// Parallelism bounds the job's own concurrent simulations; the
	// manager's shared worker pool bounds all jobs in total regardless.
	Parallelism int `json:"parallelism,omitempty"`
	// Anytime switches to the round-based streaming pipeline. Jobs that
	// want live round events need it (or one of the fields that imply
	// it: EarlyStopRounds, WaveSize, protocol "adaptive").
	Anytime bool `json:"anytime,omitempty"`
	// EarlyStopRounds stops the campaign once the clustered cycle set is
	// stable this many rounds (implies anytime).
	EarlyStopRounds int `json:"earlyStopRounds,omitempty"`
	// WaveSize is the experiments-per-round granularity (implies anytime).
	WaveSize int `json:"waveSize,omitempty"`
	// Protocol is "3pa" (default), "random", or "adaptive".
	Protocol string `json:"protocol,omitempty"`
	// Priority orders queued jobs (higher first; equal priorities run in
	// submission order).
	Priority int `json:"priority,omitempty"`
	// MaxAttempts is the total number of times the job may run (initial
	// attempt plus retries); 0 or 1 means no retries. Failed attempts are
	// retried with capped exponential backoff.
	MaxAttempts int `json:"maxAttempts,omitempty"`
	// DeadlineMS bounds each attempt's wall-clock run time; a stuck job
	// past its deadline is cancelled by the watchdog and fails with
	// "deadline_exceeded" (0 = no deadline).
	DeadlineMS int64 `json:"deadlineMs,omitempty"`
}

// anytime reports whether the spec resolves to the round-based
// pipeline, and hence emits round-granular resume checkpoints.
func (s *CampaignSpec) anytime() bool {
	return s.Anytime || s.EarlyStopRounds > 0 || s.WaveSize > 0 || s.Protocol == "adaptive"
}

// Resolve validates the spec and returns the target system plus the
// campaign options it denotes (context, observer, and worker pool are
// the job manager's to add).
func (s *CampaignSpec) Resolve() (sysreg.System, []csnake.Option, error) {
	sys, err := sysreg.Resolve(s.System)
	if err != nil {
		return nil, nil, err
	}
	if s.MaxAttempts < 0 {
		return nil, nil, fmt.Errorf("maxAttempts = %d: must be non-negative", s.MaxAttempts)
	}
	if s.DeadlineMS < 0 {
		return nil, nil, fmt.Errorf("deadlineMs = %d: must be non-negative", s.DeadlineMS)
	}
	seed := int64(42)
	if s.Seed != nil {
		seed = *s.Seed
	}
	opts := []csnake.Option{
		csnake.WithSeed(seed),
		csnake.WithReps(s.Reps),
		csnake.WithBudgetFactor(s.BudgetFactor),
		csnake.WithParallelism(s.Parallelism),
	}
	if len(s.DelayMagnitudesMS) > 0 {
		mags := make([]time.Duration, len(s.DelayMagnitudesMS))
		for i, ms := range s.DelayMagnitudesMS {
			if ms <= 0 {
				return nil, nil, fmt.Errorf("delayMagnitudesMs[%d] = %d: must be positive", i, ms)
			}
			mags[i] = time.Duration(ms) * time.Millisecond
		}
		opts = append(opts, csnake.WithDelayMagnitudes(mags...))
	}
	switch s.Protocol {
	case "", "3pa":
	case "random":
		opts = append(opts, csnake.WithProtocol(csnake.ProtocolRandom))
	case "adaptive":
		opts = append(opts, csnake.WithProtocol(csnake.ProtocolAdaptive))
	default:
		return nil, nil, fmt.Errorf("unknown protocol %q (want 3pa, random, or adaptive)", s.Protocol)
	}
	if s.Anytime {
		opts = append(opts, csnake.WithAnytime())
	}
	if s.EarlyStopRounds > 0 {
		opts = append(opts, csnake.WithEarlyStop(s.EarlyStopRounds))
	}
	if s.WaveSize > 0 {
		opts = append(opts, csnake.WithAnytime(), csnake.WithWaveSize(s.WaveSize))
	}
	return sys, opts, nil
}

// JobState is the lifecycle state of a campaign job:
//
//	queued -> running -> succeeded | failed | cancelled
//	queued -> cancelled                  (cancelled before starting)
//	running -> queued                    (failed attempt awaiting retry)
//	running -> interrupted               (graceful shutdown mid-campaign)
//	interrupted -> queued                (re-queued at next boot)
//
// interrupted is non-terminal: the job's journal entry and round
// checkpoint survive the restart and the next boot re-queues it, so it
// resumes from its last sealed round.
type JobState string

const (
	StateQueued      JobState = "queued"
	StateRunning     JobState = "running"
	StateSucceeded   JobState = "succeeded"
	StateFailed      JobState = "failed"
	StateCancelled   JobState = "cancelled"
	StateInterrupted JobState = "interrupted"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateSucceeded || s == StateFailed || s == StateCancelled
}

// endsStream reports whether entering the state closes the job's event
// streams: terminal, or interrupted (the daemon is going down).
func (s JobState) endsStream() bool { return s.Terminal() || s == StateInterrupted }

// JobStatus is the GET /v1/campaigns/{id} response: job identity and
// lifecycle plus the detection progress so far (for anytime jobs, the
// rounds stream even while the campaign is still running).
type JobStatus struct {
	ID      string       `json:"id"`
	State   JobState     `json:"state"`
	Spec    CampaignSpec `json:"spec"`
	Created time.Time    `json:"created"`
	Started *time.Time   `json:"started,omitempty"`
	// Finished is set in every terminal state.
	Finished *time.Time `json:"finished,omitempty"`
	// Error describes a failed (or cancelled) job.
	Error string `json:"error,omitempty"`
	// QueuePosition is the 1-based position among queued jobs (0 once
	// the job has started).
	QueuePosition int `json:"queuePosition,omitempty"`
	// Sims counts simulated executions so far (live for running jobs).
	Sims int `json:"sims"`
	// Rounds is the anytime round trajectory so far.
	Rounds []report.JSONRound `json:"rounds,omitempty"`
	// EarlyStopped marks a campaign that converged before its budget.
	EarlyStopped bool `json:"earlyStopped,omitempty"`
	// GraphID names the persisted causal-graph artifact of a succeeded
	// job (GET /v1/graphs/{id}).
	GraphID string `json:"graphId,omitempty"`
	// Attempt is the number of times the job has started running (> 1
	// after retries; 0 while first queued).
	Attempt int `json:"attempt,omitempty"`
	// Resumed marks a job recovered from the journal after a daemon
	// restart (it was queued, running, or interrupted when the previous
	// daemon stopped).
	Resumed bool `json:"resumed,omitempty"`
}

// SubmitResponse is the POST /v1/campaigns response.
type SubmitResponse struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
}

// Event is one server-sent stream element on
// GET /v1/campaigns/{id}/events.
type Event struct {
	// Type is "round" (a completed anytime round) or "state" (a job
	// lifecycle transition; a terminal state ends the stream).
	Type string `json:"type"`
	Job  string `json:"job"`
	// Round is set for "round" events.
	Round *report.JSONRound `json:"round,omitempty"`
	// State, Error and Attempt are set for "state" events; Attempt tells a
	// retry transition (running -> queued) from the initial queueing.
	State   JobState `json:"state,omitempty"`
	Error   string   `json:"error,omitempty"`
	Attempt int      `json:"attempt,omitempty"`
	// Dropped counts rounds this subscriber lost to backpressure since
	// its last delivered event (slow consumers drop rounds, never block
	// the campaign).
	Dropped int `json:"dropped,omitempty"`
}

// MergeRequest is the POST /v1/graphs/merge request body: stitch the
// named persisted graphs into a new artifact, optionally re-searching
// the merged graph for cycles that only the cross-campaign evidence
// reveals.
type MergeRequest struct {
	Graphs   []string `json:"graphs"`
	Research bool     `json:"research,omitempty"`
}

// MergeResponse describes the merged artifact (and, with research, the
// cycles found in it).
type MergeResponse struct {
	Graph GraphInfo `json:"graph"`
	// Cycles/Clusters are set when research was requested. Clusters are
	// unlabelled: a merged graph spans campaigns, so no single system's
	// ground truth applies.
	Cycles   int                  `json:"cycles,omitempty"`
	Clusters []report.JSONCluster `json:"clusters,omitempty"`
}

// GraphInfo is the stored-artifact metadata served by GET /v1/graphs.
type GraphInfo struct {
	ID string `json:"id"`
	// System is the originating system ("" for cross-system merges).
	System string `json:"system,omitempty"`
	// Source says where the artifact came from: "campaign:<job>" or
	// "merge:<id>+<id>+...".
	Source  string    `json:"source"`
	Edges   int       `json:"edges"`
	Faults  int       `json:"faults"`
	Bytes   int       `json:"bytes"`
	Created time.Time `json:"created"`
}

// MonitorSpec is the POST /v1/monitors request body: an online cascade
// monitor that ingests JSONL trace batches and alerts on closed/broken
// self-sustaining cycles.
type MonitorSpec struct {
	// Name is an optional human label.
	Name string `json:"name,omitempty"`
	// WindowMS is the evidence retention span in milliseconds of stream
	// time; 0 retains everything (the offline-equivalent configuration).
	WindowMS int64 `json:"windowMs,omitempty"`
	// Buckets is the decay granularity (0 = default 8).
	Buckets int `json:"buckets,omitempty"`
}

// MonitorStatus is the GET /v1/monitors/{id} response.
type MonitorStatus struct {
	ID      string      `json:"id"`
	Spec    MonitorSpec `json:"spec"`
	Created time.Time   `json:"created"`
	// Stats is the engine's counter snapshot (records, skipped, active
	// cycles, window churn).
	Stats monitor.Stats `json:"stats"`
	// Subscribers counts live alert-stream connections.
	Subscribers int `json:"subscribers,omitempty"`
}

// IngestResponse is the POST /v1/monitors/{id}/events response: the
// batch summary including every alert the batch fired.
type IngestResponse monitor.BatchResult

// errorBody is the uniform error envelope.
type errorBody struct {
	Error string `json:"error"`
}
