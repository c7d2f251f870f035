// Package inject is CSnake's runtime agent (§4.2): the hooks the target
// systems are instrumented with, and the per-run injection plan that
// decides when a hook fires a fault. The paper instruments Java bytecode
// with Byteman; this reproduction writes the hooks into the Go source and
// verifies their inventory with a real static analyzer (internal/analyzer).
//
// Hook semantics follow §4.2:
//   - Exception (throw / library-call) injection is one-time: the first
//     time the hook is reached, the guard is forced to fire.
//   - Negation injection is persistent: every call to the error detector
//     returns the negated value.
//   - Delay (contention) injection adds a fixed spinning delay before
//     every iteration of the target loop; seven magnitudes between 100ms
//     and 8s are swept per the paper.
//
// Every hook doubles as a monitor point: it records coverage, natural
// activations with local state, loop iteration counts, and branch
// evaluations for the local compatibility check (§6.2).
//
// Hooks are on the simulation hot path (they run once per monitored event
// across millions of events per campaign), so recording is engineered to
// be allocation-free in steady state: counters land in trace.Run's flat
// dense-id slices (one read-only index lookup, then array increments),
// occurrence captures reuse the engine's interned 2-frame stacks and the
// proc's copy-on-write branch trace instead of copying slices per
// activation.
package inject

import (
	"fmt"
	"time"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/trace"
)

// DelayMagnitudes are the seven spinning-delay lengths swept for each
// delay injection (§4.2: 100ms to 8s, empirically chosen to trip the
// systems' reduced 10-20s timeouts when applied repeatedly inside loops).
var DelayMagnitudes = []time.Duration{
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	1 * time.Second,
	2 * time.Second,
	4 * time.Second,
	8 * time.Second,
}

// PlanKind selects what a Plan injects.
type PlanKind int

const (
	// None runs the workload uninstrumented by faults: the profile run.
	None PlanKind = iota
	// Exception forces a one-time throw at the target point.
	Exception
	// Negate persistently negates the target error detector.
	Negate
	// Delay adds a spinning delay to each iteration of the target loop.
	Delay
)

func (k PlanKind) String() string {
	switch k {
	case None:
		return "profile"
	case Exception:
		return "exception"
	case Negate:
		return "negate"
	case Delay:
		return "delay"
	default:
		return fmt.Sprintf("PlanKind(%d)", int(k))
	}
}

// Plan describes one injection experiment.
type Plan struct {
	Kind   PlanKind
	Target faults.ID
	// Delay is the spin length for Kind == Delay.
	Delay time.Duration
}

// PlanFor derives the injection plan kind for a point.
func PlanFor(pt faults.Point, delay time.Duration) Plan {
	switch pt.Kind {
	case faults.Negation:
		return Plan{Kind: Negate, Target: pt.ID}
	case faults.Loop:
		return Plan{Kind: Delay, Target: pt.ID, Delay: delay}
	default:
		return Plan{Kind: Exception, Target: pt.ID}
	}
}

// Profile returns the no-injection plan.
func Profile() Plan { return Plan{Kind: None} }

// InjectedError is the error value produced by fired exception guards.
type InjectedError struct {
	ID  faults.ID
	Msg string
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("%s: %s", e.ID, e.Msg)
}

// Runtime is the per-run agent consulted by every hook. A Runtime is bound
// to exactly one simulated run. When Rec is nil the hooks skip all
// monitoring (used by the §8.5 overhead baseline) but still honour the
// plan.
type Runtime struct {
	Plan Plan
	Rec  *trace.Run

	excFired bool
	negFired bool
}

// New returns a Runtime executing plan and recording into rec (which may
// be nil to disable monitoring).
func New(plan Plan, rec *trace.Run) *Runtime {
	return &Runtime{Plan: plan, Rec: rec}
}

func (rt *Runtime) capture(p *sim.Proc) trace.Occurrence {
	return trace.Occurrence{Stack: p.Stack(), Branches: p.LocalBranches()}
}

// Guard instruments a throw point or library-call site: cond is the
// natural condition under which the system itself would raise the fault.
// Guard returns whether the fault should be raised, either naturally or by
// injection. The instrumented code raises its error when Guard returns
// true:
//
//	if env.Guard(p, "dfs.ibr.rpc_ioe", resp.Err != nil) {
//	    return fmt.Errorf("IBR rpc failed")
//	}
func (rt *Runtime) Guard(p *sim.Proc, id faults.ID, cond bool) bool {
	injected := false
	if rt.Plan.Kind == Exception && rt.Plan.Target == id && !rt.excFired {
		rt.excFired = true
		injected = true
	}
	if rt.Rec != nil {
		// Note: the guard's own outcome is deliberately NOT added to the
		// frame's local branch trace. The compatibility check compares
		// the context *around* a fault (the explicit monitor points of
		// Figure 4); recording the guard itself would make any injected
		// activation trivially incompatible with natural ones, since
		// injection forces the throw branch precisely when the natural
		// condition is absent.
		switch {
		case injected:
			rt.Rec.Cover(id)
			rt.Rec.InjFired = true
			rt.Rec.InjSite = rt.capture(p)
		case cond:
			// Fused Cover+Activate: one dense lookup on the hot path.
			rt.Rec.CoverActivate(id, rt.capture(p))
		default:
			rt.Rec.Cover(id)
		}
	}
	return cond || injected
}

// Err is a convenience wrapper around Guard that materialises the error.
func (rt *Runtime) Err(p *sim.Proc, id faults.ID, cond bool, msg string) error {
	if rt.Guard(p, id, cond) {
		return &InjectedError{ID: id, Msg: msg}
	}
	return nil
}

// Negate instruments a boolean error detector. v is the detector's
// computed value and errVal the polarity that signals an error (e.g.
// isStale: errVal=true; canPlaceFavoredNodes: errVal=false). The returned
// value is v, negated persistently when this detector is the injection
// target.
func (rt *Runtime) Negate(p *sim.Proc, id faults.ID, v, errVal bool) bool {
	injected := rt.Plan.Kind == Negate && rt.Plan.Target == id
	out := v
	if injected {
		out = !v
	}
	if rt.Rec != nil {
		if v == errVal {
			// The detector observed the error on its own: a natural
			// activation even under injection (which would mask it).
			// Fused Cover+Activate: one dense lookup on the hot path.
			rt.Rec.CoverActivate(id, rt.capture(p))
		} else {
			rt.Rec.Cover(id)
		}
		if injected && !rt.negFired {
			rt.negFired = true
			rt.Rec.InjFired = true
			rt.Rec.InjSite = rt.capture(p)
		}
	}
	return out
}

// Loop instruments one iteration of a monitored loop: call it at the top
// of the loop body. It resets the frame-local branch trace so occurrence
// states carry only the fault-happening iteration (§6.2), counts the
// iteration, and applies the planned spinning delay.
func (rt *Runtime) Loop(p *sim.Proc, id faults.ID) {
	if rt.Rec != nil {
		// Fused Cover+LoopIter (one dense lookup per iteration); the
		// calling-context capture -- an interned-stack read plus a second
		// lookup -- happens only on the first iteration of each loop.
		if rt.Rec.LoopTick(id) {
			rt.Rec.SeeLoop(id, trace.Occurrence{Stack: p.Stack()})
		}
		p.ResetLocalBranches()
	}
	if rt.Plan.Kind == Delay && rt.Plan.Target == id {
		if rt.Rec != nil && !rt.Rec.InjFired {
			rt.Rec.InjFired = true
			rt.Rec.InjSite = rt.capture(p)
		}
		p.Sleep(rt.Plan.Delay)
	}
}

// Branch instruments a monitor-only branch near fault points; it records
// the evaluation and passes cond through so it nests in conditions:
//
//	if env.Branch(p, "dfs.createTmp.last_found", current == last) { ... }
func (rt *Runtime) Branch(p *sim.Proc, id faults.ID, cond bool) bool {
	if rt.Rec != nil {
		rt.Rec.Cover(id)
		p.RecordBranch(string(id), cond)
	}
	return cond
}

// Fn pushes a named call-stack frame; use as: defer env.Fn(p, "createTmp")().
func (rt *Runtime) Fn(p *sim.Proc, name string) func() {
	return p.Enter(name)
}
