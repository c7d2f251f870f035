package sim

import (
	"errors"
	"math/rand"
	"time"
)

// ErrTimeout is returned by Call when no response arrives in time.
var ErrTimeout = errors.New("sim: rpc timeout")

// ErrCrashed is returned by Call when the caller can immediately tell the
// destination node is gone (same-node fast path); remote callers observe
// ErrTimeout instead, as in a real network.
var ErrCrashed = errors.New("sim: destination crashed")

// errKilled is the panic sentinel that unwinds a parked process when
// Close stops its coroutine.
var errKilled = errors.New("sim: process killed")

// Proc is a simulated process: an iter.Pull coroutine that runs under the
// engine's cooperative single-runner discipline. A wake is one direct
// switch from the engine into the process, a park one switch back. All
// methods must be called from the process's own body. A runtime.Goexit in
// the body (t.FailNow, for one) is re-raised on the goroutine that called
// Run or Close.
type Proc struct {
	eng  *Engine
	pid  int
	node string
	name string
	fn   func(p *Proc)

	// next resumes the coroutine until it parks or ends, stop kills it,
	// and park is the coroutine's yield: false once stop was called.
	next func() (struct{}, bool)
	stop func()
	park func(struct{}) bool

	started bool
	done    bool
	killed  bool
	wakeGen uint64

	// frames is the explicit call stack maintained by Enter/exit. The
	// injection layer reads it to capture 2-level calling context and the
	// per-frame local branch traces used by the compatibility check.
	frames []Frame

	// frameGen versions the frames slice (bumped on every push/pop) and
	// stackGen/stackCache memoise the last Stack() result against it, so
	// repeated fault activations in an unchanged calling context -- the
	// retry-storm hot path -- return the same interned slice.
	frameGen   uint64
	stackGen   uint64
	stackCache []string
}

// Frame is one entry of a process's explicit call stack.
type Frame struct {
	Fn string
	// Branches accumulates (branch id, outcome) pairs evaluated in this
	// frame since the frame was entered or since the innermost loop hook
	// last reset it. The compatibility check compares these.
	Branches []BranchEval
	// shared marks Branches as handed out by LocalBranches: the next
	// mutation must leave the shared backing array untouched
	// (copy-on-write), since captured occurrence states alias it.
	shared bool
}

// BranchEval records a monitored branch evaluation.
type BranchEval struct {
	ID    string
	Taken bool
}

// body is the process's coroutine function.
func (p *Proc) body(park func(struct{}) bool) {
	defer func() {
		r := recover()
		p.done = true
		if r != nil && r != errKilled {
			// Hand user panics to the engine, where step re-raises them
			// with process context.
			p.eng.fail = &procPanic{proc: p, val: r}
		}
	}()
	p.park = park
	p.fn(p)
}

// yield parks the process and switches back to the engine.
func (p *Proc) yield() {
	if !p.park(struct{}{}) {
		panic(errKilled)
	}
}

// block registers a fresh wake generation, optionally arms a timeout wake,
// and parks. Returns after some wake targeted at the current generation.
func (p *Proc) block(timeout time.Duration) {
	p.wakeGen++
	if timeout >= 0 {
		p.eng.schedule(p.eng.now+timeout, evWake, p, p.wakeGen, nil)
	}
	p.yield()
}

// wakeNow schedules an immediate wake for the current generation. Used by
// mailboxes on delivery.
func (p *Proc) wakeNow() {
	p.eng.schedule(p.eng.now, evWake, p, p.wakeGen, nil)
}

// Node returns the node this process runs on.
func (p *Proc) Node() string { return p.node }

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// PID returns the unique process id.
func (p *Proc) PID() int { return p.pid }

// Now returns current virtual time.
func (p *Proc) Now() time.Duration { return p.eng.now }

// Rand returns the engine RNG (single-runner safe).
func (p *Proc) Rand() *rand.Rand { return p.eng.rng }

// Engine returns the owning engine.
func (p *Proc) Engine() *Engine { return p.eng }

// Sleep advances this process's local time by d.
func (p *Proc) Sleep(d time.Duration) {
	if p.killed {
		panic(errKilled)
	}
	if d <= 0 {
		return
	}
	p.wakeGen++
	p.eng.schedule(p.eng.now+d, evWake, p, p.wakeGen, nil)
	p.yield()
}

// SleepQ is Sleep from the idle point of a process loop: it clears the
// innermost frame's local branch accumulator before parking, so branch
// evaluations from before the park never reach the occurrence states
// captured after the wake.
func (p *Proc) SleepQ(d time.Duration) {
	if d > 0 {
		p.ResetLocalBranches()
	}
	p.Sleep(d)
}

// RecvQ is an infinite-timeout Recv from the idle point of a process
// loop. Like SleepQ it clears the innermost frame's branch accumulator on
// entry (on the immediate-pop path too, so the clear point does not
// depend on queue occupancy).
func (p *Proc) RecvQ(mb *Mailbox) interface{} {
	p.ResetLocalBranches()
	m, _ := p.Recv(mb, -1)
	return m
}

// Work models CPU-bound work of duration d. It is semantically identical
// to Sleep but documents intent: a worker draining a queue serialises all
// Work on itself, which is what makes queue length translate into latency
// and latency into timeouts -- the contention mechanics cascading-failure
// experiments rely on.
func (p *Proc) Work(d time.Duration) { p.Sleep(d) }

// Spawn starts a sibling process on the same node.
func (p *Proc) Spawn(name string, fn func(p *Proc)) *Proc {
	return p.eng.Spawn(p.node, name, fn)
}

// Enter pushes a named frame onto the explicit call stack and returns the
// matching pop. Use as: defer p.Enter("BlockReceiver")().
func (p *Proc) Enter(fn string) func() {
	p.frames = append(p.frames, Frame{Fn: fn})
	p.frameGen++
	depth := len(p.frames)
	return func() {
		if len(p.frames) >= depth {
			p.frames = p.frames[:depth-1]
			p.frameGen++
		}
	}
}

// Stack returns up to the two innermost frame names, outermost first,
// excluding nothing: [caller, callee] -- the "2-call-site sensitivity"
// context from the paper (§6.2). The result is interned per (caller,
// callee) pair and memoised against the frame generation: capturing the
// same calling context repeatedly allocates nothing. Callers must treat
// the returned slice as immutable.
func (p *Proc) Stack() []string {
	if p.stackCache != nil && p.stackGen == p.frameGen {
		return p.stackCache
	}
	n := len(p.frames)
	var a, b string
	switch {
	case n == 0:
	case n == 1:
		a = p.frames[0].Fn
	default:
		a, b = p.frames[n-2].Fn, p.frames[n-1].Fn
	}
	depth := n
	if depth > 2 {
		depth = 2
	}
	s := p.eng.internStack(a, b, depth)
	p.stackCache, p.stackGen = s, p.frameGen
	return s
}

// FullStack returns the entire explicit call stack, outermost first.
func (p *Proc) FullStack() []string {
	out := make([]string, len(p.frames))
	for i, f := range p.frames {
		out[i] = f.Fn
	}
	return out
}

// RecordBranch appends a branch evaluation to the innermost frame.
func (p *Proc) RecordBranch(id string, taken bool) {
	if len(p.frames) == 0 {
		p.frames = append(p.frames, Frame{Fn: p.name})
		p.frameGen++
	}
	f := &p.frames[len(p.frames)-1]
	if f.shared {
		// The current backing array is aliased by a captured occurrence
		// state: append into a fresh array instead of mutating it.
		fresh := make([]BranchEval, len(f.Branches), len(f.Branches)+4)
		copy(fresh, f.Branches)
		f.Branches = fresh
		f.shared = false
	}
	f.Branches = append(f.Branches, BranchEval{ID: id, Taken: taken})
}

// ResetLocalBranches clears the innermost frame's branch accumulator. Loop
// hooks call this at each iteration so occurrence states carry only the
// fault-happening iteration's trace (§6.2).
func (p *Proc) ResetLocalBranches() {
	if len(p.frames) == 0 {
		return
	}
	f := &p.frames[len(p.frames)-1]
	if f.shared {
		// Truncating in place would let future appends overwrite entries
		// still visible through a captured occurrence state.
		f.Branches = nil
		f.shared = false
		return
	}
	f.Branches = f.Branches[:0]
}

// LocalBranches returns the innermost frame's branch trace without
// copying. The slice is handed out copy-on-write: the frame's next
// mutation moves to a fresh backing array, so holders see a stable
// snapshot. Callers must treat the returned slice as immutable.
func (p *Proc) LocalBranches() []BranchEval {
	if len(p.frames) == 0 {
		return nil
	}
	f := &p.frames[len(p.frames)-1]
	if len(f.Branches) == 0 {
		return nil
	}
	f.shared = true
	return f.Branches[:len(f.Branches):len(f.Branches)]
}
