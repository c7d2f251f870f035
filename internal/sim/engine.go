// Package sim implements a deterministic discrete-event simulator for
// distributed systems. It is the execution substrate on which the target
// systems in internal/systems run: every node, worker, queue, timer, RPC,
// and network fault is simulated against a virtual clock, so fault
// injection experiments are fast, reproducible, and seed-controlled.
//
// The engine uses a cooperative single-runner discipline: every process
// is an iter.Pull coroutine, and at any instant exactly one of them runs
// while the others are parked. Processes advance the virtual clock only
// through blocking operations (Sleep, Work, Recv, Call), which makes runs
// with equal seeds bit-for-bit identical.
//
// The building blocks: Engine (the event loop, clock, RNG, and network
// fault surface: partitions, pauses, crashes), Proc (a simulated process
// with an explicit call stack for the injection layer's 2-frame
// occurrence capture), Mailbox (unbounded FIFO message queues with
// Send/Recv/Call/Reply RPC conventions), and Mutex (a FIFO lock whose
// waiters park like any other blocked process). Target systems in
// internal/systems compose these into clusters of nodes, workers, and
// clients.
package sim

import (
	"fmt"
	"iter"
	"math/rand"
	"time"
)

// StopReason reports why Engine.Run returned.
type StopReason int

const (
	// StopQuiesced means the event queue drained: no process has pending
	// work or timers. This is the normal end of a workload.
	StopQuiesced StopReason = iota
	// StopHorizon means the virtual-time horizon passed before the system
	// quiesced. Long-running services (heartbeat loops) always end here.
	StopHorizon
	// StopEventBudget means the event-count safety valve fired, which
	// usually indicates a runaway retry storm -- exactly the behaviour
	// cascading-failure experiments try to provoke.
	StopEventBudget
)

func (r StopReason) String() string {
	switch r {
	case StopQuiesced:
		return "quiesced"
	case StopHorizon:
		return "horizon"
	case StopEventBudget:
		return "event-budget"
	default:
		return fmt.Sprintf("StopReason(%d)", int(r))
	}
}

// RunResult summarises a completed Engine.Run call.
type RunResult struct {
	Reason StopReason
	Now    time.Duration
	Events int
}

// LatencyFunc computes the one-way network latency for a message between
// two nodes. Implementations may draw jitter from rng; the engine calls it
// only from the single-runner context, so no locking is needed.
type LatencyFunc func(rng *rand.Rand, src, dst string) time.Duration

// Options configures a new Engine.
type Options struct {
	// Seed initialises the engine RNG. Runs with equal seeds and equal
	// workloads produce identical schedules.
	Seed int64
	// MaxEvents bounds the cumulative number of processed events over the
	// engine's lifetime as a defence against livelock. The bound is
	// cumulative rather than per Run call so that a run executed in
	// segments exhausts the budget at exactly the same event as a single
	// straight Run. Zero means the default (4 million).
	MaxEvents int
	// Latency overrides the default message latency model. When nil, a
	// fixed DefaultLatency plus uniform Jitter is used.
	Latency LatencyFunc
	// DefaultLatency is the base one-way message latency (default 1ms).
	DefaultLatency time.Duration
	// Jitter is the maximum uniform extra latency per message (default
	// 200us). Jitter is what makes different seeds explore different
	// interleavings. A negative value disables jitter entirely: messages
	// take exactly DefaultLatency and the default latency model never
	// touches the RNG, which keeps the RNG stream free for workload use.
	Jitter time.Duration
}

type eventKind uint8

const (
	evWake    eventKind = iota // resume a parked or not-yet-started process
	evApply                    // run a closure in engine context
	evDeliver                  // deliver a message body to a mailbox
)

// event is scheduled work. Events are stored by value in the queue: no
// per-event heap allocation and no interface boxing on push or pop. The
// evDeliver fields are inlined (rather than closed over by an evApply
// closure) so plain message sends -- the dominant event type in RPC-heavy
// workloads -- allocate nothing.
type event struct {
	at   time.Duration
	seq  uint64
	kind eventKind
	proc *Proc
	gen  uint64 // wake generation; stale wakes are ignored
	fn   func()
	// evDeliver payload.
	mb   *Mailbox
	body interface{}
	src  string
}

// eventQueue is an inlined 4-ary min-heap of event values ordered by
// (at, seq). Because seq is unique per event the ordering key is a strict
// total order, so the pop sequence is exactly ascending (at, seq) --
// identical to the binary container/heap it replaces -- while the wider
// fan-out halves the sift depth and the value storage eliminates the
// pointer chase and interface conversions of heap.Push/heap.Pop. The
// backing array is reused across pushes (its own free list): after warm-up
// a schedule/pop cycle performs zero allocations.
type eventQueue struct {
	ev []event
}

func (q *eventQueue) len() int { return len(q.ev) }

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *eventQueue) push(e event) {
	q.ev = append(q.ev, e)
	// Sift up.
	i := len(q.ev) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !eventLess(&q.ev[i], &q.ev[p]) {
			break
		}
		q.ev[i], q.ev[p] = q.ev[p], q.ev[i]
		i = p
	}
}

// peek returns a pointer to the minimum event; the queue must be non-empty.
// The pointer is invalidated by the next push or pop.
func (q *eventQueue) peek() *event { return &q.ev[0] }

// pop removes and returns the minimum event; the queue must be non-empty.
func (q *eventQueue) pop() event {
	top := q.ev[0]
	n := len(q.ev) - 1
	q.ev[0] = q.ev[n]
	q.ev[n] = event{} // release proc/fn/body references
	q.ev = q.ev[:n]
	// Sift down.
	i := 0
	for {
		c := i<<2 + 1 // first child
		if c >= n {
			break
		}
		// Pick the smallest of up to four children.
		min := c
		end := c + 4
		if end > n {
			end = n
		}
		for k := c + 1; k < end; k++ {
			if eventLess(&q.ev[k], &q.ev[min]) {
				min = k
			}
		}
		if !eventLess(&q.ev[min], &q.ev[i]) {
			break
		}
		q.ev[i], q.ev[min] = q.ev[min], q.ev[i]
		i = min
	}
	return top
}

// Engine is a deterministic discrete-event simulator instance. An Engine
// is not safe for concurrent use; all interaction happens either before
// Run, from within simulated processes, or from evApply closures.
type Engine struct {
	now    time.Duration
	seq    uint64
	events eventQueue
	rng    *rand.Rand

	procs    []*Proc
	nextPID  int
	running  bool
	closed   bool
	executed int

	// Fault-surface state maps are lazily allocated: most runs never
	// partition, pause, or crash anything, and nil-map reads are free in
	// Go, so the common path pays neither the four make(map) calls per
	// engine nor any cleanup.
	latency    LatencyFunc
	partitions map[[2]string]bool
	paused     map[string]bool
	crashed    map[string]bool
	held       map[string][]heldDelivery // deliveries held while a node is paused

	// stacks interns the 2-frame occurrence stacks captured by the
	// injection hooks: one canonical slice per distinct (caller, callee,
	// depth) triple per engine, so repeated fault activations in the same
	// context return the same backing array instead of allocating.
	stacks map[stackKey][]string

	maxEvents int
	fail      *procPanic

	nextMailboxID int
}

// procPanic carries a user panic out of a process's coroutine to the
// engine, which re-raises it from Run or Close.
type procPanic struct {
	proc *Proc
	val  interface{}
}

type heldDelivery struct {
	mb   *Mailbox
	body interface{}
}

// NewEngine returns a fresh Engine configured by opts.
func NewEngine(opts Options) *Engine {
	if opts.MaxEvents == 0 {
		opts.MaxEvents = 4_000_000
	}
	if opts.DefaultLatency == 0 {
		opts.DefaultLatency = time.Millisecond
	}
	if opts.Jitter == 0 {
		opts.Jitter = 200 * time.Microsecond
	}
	e := &Engine{
		rng:       rand.New(NewSource(opts.Seed)),
		maxEvents: opts.MaxEvents,
	}
	if opts.Latency != nil {
		e.latency = opts.Latency
	} else {
		base, jit := opts.DefaultLatency, opts.Jitter
		if jit < 0 {
			jit = 0
		}
		e.latency = func(rng *rand.Rand, src, dst string) time.Duration {
			if src == dst {
				// Local fast path: fixed loopback latency, no RNG draw.
				return 10 * time.Microsecond
			}
			if jit == 0 {
				// Jitter disabled: skip the RNG draw entirely.
				return base
			}
			return base + time.Duration(rng.Int63n(int64(jit)+1))
		}
	}
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Rand returns the engine RNG. It must only be used from the single-runner
// context (process bodies, After closures, or before Run).
func (e *Engine) Rand() *rand.Rand { return e.rng }

func (e *Engine) schedule(at time.Duration, kind eventKind, p *Proc, gen uint64, fn func()) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.events.push(event{at: at, seq: e.seq, kind: kind, proc: p, gen: gen, fn: fn})
}

// scheduleDeliver enqueues a message delivery without allocating a closure.
func (e *Engine) scheduleDeliver(at time.Duration, mb *Mailbox, body interface{}, src string) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.events.push(event{at: at, seq: e.seq, kind: evDeliver, mb: mb, body: body, src: src})
}

// After runs fn in engine context at virtual time Now()+d. fn must not
// block; use Spawn for blocking work.
func (e *Engine) After(d time.Duration, fn func()) {
	e.schedule(e.now+d, evApply, nil, 0, fn)
}

// Spawn creates a new simulated process on the given node and schedules it
// to start immediately. The name is used in diagnostics and call stacks.
func (e *Engine) Spawn(node, name string, fn func(p *Proc)) *Proc {
	e.nextPID++
	p := &Proc{eng: e, pid: e.nextPID, node: node, name: name, fn: fn}
	e.procs = append(e.procs, p)
	e.schedule(e.now, evWake, p, 0, nil)
	return p
}

// deliver completes an evDeliver event: the message vanishes when the link
// is partitioned or the destination crashed, is held while the destination
// is paused, and is enqueued otherwise.
func (e *Engine) deliver(ev *event) {
	dst := ev.mb.node
	if e.crashed[dst] || e.partitions[partKey(ev.src, dst)] {
		return
	}
	if e.paused[dst] {
		if e.held == nil {
			e.held = make(map[string][]heldDelivery)
		}
		e.held[dst] = append(e.held[dst], heldDelivery{mb: ev.mb, body: ev.body})
		return
	}
	ev.mb.deliver(ev.body)
}

// Run processes events until the virtual clock passes the horizon, the
// event queue drains, or the event budget is exhausted.
func (e *Engine) Run(horizon time.Duration) RunResult {
	if e.closed {
		panic("sim: Run after Close")
	}
	e.running = true
	defer func() { e.running = false }()
	processed := 0
	for e.events.len() > 0 {
		// The event budget is cumulative across Run calls: a run executed
		// in segments hits the budget at exactly the same event as the
		// same run executed in one Run call.
		if e.executed+processed >= e.maxEvents {
			e.executed += processed
			return RunResult{Reason: StopEventBudget, Now: e.now, Events: processed}
		}
		if e.events.peek().at > horizon {
			// Leave it queued for a potential later Run with a larger
			// horizon (peek-first replaces the old pop-then-push-back).
			e.now = horizon
			e.executed += processed
			return RunResult{Reason: StopHorizon, Now: e.now, Events: processed}
		}
		ev := e.events.pop()
		e.now = ev.at
		processed++
		switch ev.kind {
		case evApply:
			ev.fn()
		case evDeliver:
			e.deliver(&ev)
		case evWake:
			p := ev.proc
			if p.done || p.killed || e.crashed[p.node] {
				continue
			}
			if ev.gen != p.wakeGen {
				continue // stale wake (e.g. timeout racing a delivery)
			}
			e.step(p)
		}
	}
	e.executed += processed
	return RunResult{Reason: StopQuiesced, Now: e.now, Events: processed}
}

// step switches into p's coroutine, starting it on its first wake, and
// returns when p parks or ends.
func (e *Engine) step(p *Proc) {
	if !p.started {
		p.started = true
		p.next, p.stop = iter.Pull(p.body)
	}
	p.next()
	e.rethrow()
}

// rethrow re-raises a user panic that body recovered, with process context.
func (e *Engine) rethrow() {
	if e.fail != nil {
		f := e.fail
		e.fail = nil
		panic(fmt.Sprintf("sim: process %q on node %q panicked: %v", f.proc.name, f.proc.node, f.val))
	}
}

// Close stops every live process's coroutine: its park returns false and
// errKilled unwinds it through its deferred cleanup. Call it after the
// final Run (a defer, so a panicking Run does not strand the others).
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	for _, p := range e.procs {
		if p.started && !p.done {
			p.killed = true
			p.stop()
			e.rethrow()
		}
	}
}

// Events returns the total number of events processed across all Run calls.
func (e *Engine) Events() int { return e.executed }

// stackKey identifies an interned (up to) 2-frame stack; the depth
// disambiguates a 1-frame stack from a 2-frame stack with an empty name.
type stackKey struct {
	a, b string
	n    uint8
}

// internStack returns the canonical interned slice for a (up to) 2-frame
// stack. Callers must not mutate the result.
func (e *Engine) internStack(a, b string, n int) []string {
	key := stackKey{a: a, b: b, n: uint8(n)}
	if s, ok := e.stacks[key]; ok {
		return s
	}
	if e.stacks == nil {
		e.stacks = make(map[stackKey][]string)
	}
	var s []string
	switch n {
	case 0:
		s = []string{}
	case 1:
		s = []string{a}
	default:
		s = []string{a, b}
	}
	e.stacks[key] = s
	return s
}

// --- network fault surface (used by the blackbox fuzzing baseline and by
// workloads that model coarse external faults) ---

func partKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// SetPartition blocks (or unblocks) message delivery between two nodes.
func (e *Engine) SetPartition(a, b string, blocked bool) {
	if blocked {
		if e.partitions == nil {
			e.partitions = make(map[[2]string]bool)
		}
		e.partitions[partKey(a, b)] = true
	} else {
		delete(e.partitions, partKey(a, b))
	}
}

// PauseNode holds all message deliveries to the node until ResumeNode.
// Paused nodes keep their local timers; only the network is frozen, which
// mirrors a GC pause or an overloaded NIC.
func (e *Engine) PauseNode(node string) {
	if e.paused == nil {
		e.paused = make(map[string]bool)
	}
	e.paused[node] = true
}

// ResumeNode releases a paused node and flushes held deliveries.
func (e *Engine) ResumeNode(node string) {
	if !e.paused[node] {
		return
	}
	delete(e.paused, node)
	held := e.held[node]
	delete(e.held, node)
	for _, h := range held {
		h.mb.deliver(h.body)
	}
}

// CrashNode permanently removes a node: its processes stop being scheduled
// and messages to it vanish. Any paused state is cleared too, so a stray
// ResumeNode on a crashed node is a clean no-op (previously the paused
// entry leaked and accumulated across long campaigns).
func (e *Engine) CrashNode(node string) {
	if e.crashed == nil {
		e.crashed = make(map[string]bool)
	}
	e.crashed[node] = true
	delete(e.paused, node)
	delete(e.held, node)
	for _, p := range e.procs {
		if p.node == node && p.started && !p.done {
			p.wakeGen++ // invalidate pending wakes
		}
	}
}

// Crashed reports whether the node has been crashed.
func (e *Engine) Crashed(node string) bool { return e.crashed[node] }
