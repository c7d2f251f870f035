package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func newTestEngine(seed int64) *Engine {
	return NewEngine(Options{Seed: seed})
}

func TestSleepAdvancesVirtualTime(t *testing.T) {
	e := newTestEngine(1)
	var at time.Duration
	e.Spawn("n1", "sleeper", func(p *Proc) {
		p.Sleep(250 * time.Millisecond)
		at = p.Now()
	})
	res := e.Run(time.Second)
	e.Close()
	if res.Reason != StopQuiesced {
		t.Fatalf("reason = %v, want quiesced", res.Reason)
	}
	if at != 250*time.Millisecond {
		t.Fatalf("woke at %v, want 250ms", at)
	}
}

func TestZeroAndNegativeSleepAreNoops(t *testing.T) {
	e := newTestEngine(1)
	var ran bool
	e.Spawn("n1", "p", func(p *Proc) {
		p.Sleep(0)
		p.Sleep(-time.Second)
		ran = true
	})
	e.Run(time.Second)
	e.Close()
	if !ran {
		t.Fatal("process did not complete")
	}
}

func TestHorizonStopsLongRunners(t *testing.T) {
	e := newTestEngine(1)
	ticks := 0
	e.Spawn("n1", "ticker", func(p *Proc) {
		for {
			p.Sleep(100 * time.Millisecond)
			ticks++
		}
	})
	res := e.Run(time.Second)
	if res.Reason != StopHorizon {
		t.Fatalf("reason = %v, want horizon", res.Reason)
	}
	if ticks != 10 {
		t.Fatalf("ticks = %d, want 10", ticks)
	}
	e.Close()
}

func TestRunCanBeResumedWithLargerHorizon(t *testing.T) {
	e := newTestEngine(1)
	ticks := 0
	e.Spawn("n1", "ticker", func(p *Proc) {
		for {
			p.Sleep(time.Second)
			ticks++
		}
	})
	e.Run(2 * time.Second)
	if ticks != 2 {
		t.Fatalf("after first run ticks = %d, want 2", ticks)
	}
	e.Run(5 * time.Second)
	if ticks != 5 {
		t.Fatalf("after second run ticks = %d, want 5", ticks)
	}
	e.Close()
}

func TestSendRecv(t *testing.T) {
	e := newTestEngine(1)
	mb := e.NewMailbox("n2", "inbox")
	var got interface{}
	e.Spawn("n2", "receiver", func(p *Proc) {
		got, _ = p.Recv(mb, -1)
	})
	e.Spawn("n1", "sender", func(p *Proc) {
		p.Send(mb, "hello")
	})
	e.Run(time.Second)
	e.Close()
	if got != "hello" {
		t.Fatalf("got %v, want hello", got)
	}
}

func TestRecvTimeout(t *testing.T) {
	e := newTestEngine(1)
	mb := e.NewMailbox("n1", "inbox")
	var ok bool
	var at time.Duration
	e.Spawn("n1", "receiver", func(p *Proc) {
		_, ok = p.Recv(mb, 300*time.Millisecond)
		at = p.Now()
	})
	e.Run(time.Second)
	e.Close()
	if ok {
		t.Fatal("Recv returned ok on empty mailbox")
	}
	if at != 300*time.Millisecond {
		t.Fatalf("timed out at %v, want 300ms", at)
	}
}

func TestRecvFIFOOrder(t *testing.T) {
	e := newTestEngine(1)
	mb := e.NewMailbox("n1", "inbox")
	var got []int
	e.Spawn("n1", "sender", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Send(mb, i)
			p.Sleep(10 * time.Millisecond) // keep deliveries ordered
		}
	})
	e.Spawn("n1", "receiver", func(p *Proc) {
		for i := 0; i < 5; i++ {
			m, ok := p.Recv(mb, -1)
			if !ok {
				t.Errorf("recv %d failed", i)
				return
			}
			got = append(got, m.(int))
		}
	})
	e.Run(time.Second)
	e.Close()
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d, want %d (fifo violated)", i, v, i)
		}
	}
}

func TestWorkerPoolSharedMailbox(t *testing.T) {
	e := newTestEngine(1)
	mb := e.NewMailbox("srv", "pool")
	served := map[string]int{}
	for i := 0; i < 3; i++ {
		worker := fmt.Sprintf("w%d", i)
		e.Spawn("srv", worker, func(p *Proc) {
			for {
				m, ok := p.Recv(mb, -1)
				if !ok {
					return
				}
				_ = m
				p.Work(100 * time.Millisecond)
				served[p.Name()]++
			}
		})
	}
	e.Spawn("cli", "client", func(p *Proc) {
		for i := 0; i < 9; i++ {
			p.Send(mb, i)
		}
	})
	e.Run(10 * time.Second)
	e.Close()
	total := 0
	for _, n := range served {
		total += n
	}
	if total != 9 {
		t.Fatalf("served %d messages, want 9 (per-worker: %v)", total, served)
	}
	if len(served) < 2 {
		t.Fatalf("expected work spread over pool, got %v", served)
	}
}

func TestCallReplyRoundTrip(t *testing.T) {
	e := newTestEngine(1)
	srv := e.NewMailbox("srv", "rpc")
	e.Spawn("srv", "server", func(p *Proc) {
		for {
			m, ok := p.Recv(srv, -1)
			if !ok {
				return
			}
			req := m.(Req)
			p.Work(5 * time.Millisecond)
			p.Reply(req, req.Body.(int)*2, nil)
		}
	})
	var got interface{}
	var err error
	e.Spawn("cli", "client", func(p *Proc) {
		got, err = p.Call(srv, 21, time.Second)
	})
	e.Run(10 * time.Second)
	e.Close()
	if err != nil {
		t.Fatalf("call error: %v", err)
	}
	if got != 42 {
		t.Fatalf("got %v, want 42", got)
	}
}

func TestCallTimesOutWhenServerSlow(t *testing.T) {
	e := newTestEngine(1)
	srv := e.NewMailbox("srv", "rpc")
	e.Spawn("srv", "server", func(p *Proc) {
		m, _ := p.Recv(srv, -1)
		req := m.(Req)
		p.Work(5 * time.Second) // slower than the client's patience
		p.Reply(req, "late", nil)
	})
	var err error
	e.Spawn("cli", "client", func(p *Proc) {
		_, err = p.Call(srv, "q", 100*time.Millisecond)
	})
	e.Run(10 * time.Second)
	e.Close()
	if err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestPartitionDropsMessages(t *testing.T) {
	e := newTestEngine(1)
	mb := e.NewMailbox("b", "inbox")
	e.SetPartition("a", "b", true)
	var ok bool
	e.Spawn("b", "receiver", func(p *Proc) {
		_, ok = p.Recv(mb, 500*time.Millisecond)
	})
	e.Spawn("a", "sender", func(p *Proc) {
		p.Send(mb, "lost")
	})
	e.Run(time.Second)
	e.Close()
	if ok {
		t.Fatal("message crossed a partition")
	}
}

func TestPartitionHealRestoresDelivery(t *testing.T) {
	e := newTestEngine(1)
	mb := e.NewMailbox("b", "inbox")
	e.SetPartition("a", "b", true)
	var got interface{}
	e.Spawn("b", "receiver", func(p *Proc) {
		got, _ = p.Recv(mb, 2*time.Second)
	})
	e.Spawn("a", "sender", func(p *Proc) {
		p.Send(mb, "lost")
		p.Sleep(100 * time.Millisecond)
		p.Engine().SetPartition("a", "b", false)
		p.Send(mb, "delivered")
	})
	e.Run(3 * time.Second)
	e.Close()
	if got != "delivered" {
		t.Fatalf("got %v, want delivered", got)
	}
}

func TestPauseHoldsAndResumeFlushes(t *testing.T) {
	e := newTestEngine(1)
	mb := e.NewMailbox("b", "inbox")
	e.PauseNode("b")
	var got interface{}
	var at time.Duration
	e.Spawn("b", "receiver", func(p *Proc) {
		got, _ = p.Recv(mb, 5*time.Second)
		at = p.Now()
	})
	e.Spawn("a", "sender", func(p *Proc) {
		p.Send(mb, "held")
	})
	e.After(time.Second, func() { e.ResumeNode("b") })
	e.Run(10 * time.Second)
	e.Close()
	if got != "held" {
		t.Fatalf("got %v, want held", got)
	}
	if at < time.Second {
		t.Fatalf("delivered at %v, want >= 1s (while paused)", at)
	}
}

func TestCrashNodeStopsScheduling(t *testing.T) {
	e := newTestEngine(1)
	ticks := 0
	e.Spawn("b", "ticker", func(p *Proc) {
		for {
			p.Sleep(100 * time.Millisecond)
			ticks++
		}
	})
	e.After(450*time.Millisecond, func() { e.CrashNode("b") })
	e.Run(2 * time.Second)
	e.Close()
	if ticks != 4 {
		t.Fatalf("ticks = %d, want 4 (crashed after 450ms)", ticks)
	}
}

func TestCrashedNodeDropsInbound(t *testing.T) {
	e := newTestEngine(1)
	mb := e.NewMailbox("b", "inbox")
	e.CrashNode("b")
	var err error
	e.Spawn("a", "client", func(p *Proc) {
		_, err = p.Call(mb, "ping", 200*time.Millisecond)
	})
	e.Run(time.Second)
	e.Close()
	if err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	runOnce := func(seed int64) []string {
		e := newTestEngine(seed)
		var log []string
		srv := e.NewMailbox("srv", "rpc")
		for i := 0; i < 2; i++ {
			e.Spawn("srv", fmt.Sprintf("w%d", i), func(p *Proc) {
				for {
					m, ok := p.Recv(srv, -1)
					if !ok {
						return
					}
					req := m.(Req)
					p.Work(time.Duration(p.Rand().Intn(10)+1) * time.Millisecond)
					log = append(log, fmt.Sprintf("%s@%v:%v", p.Name(), p.Now(), req.Body))
					p.Reply(req, nil, nil)
				}
			})
		}
		for c := 0; c < 3; c++ {
			cli := fmt.Sprintf("c%d", c)
			e.Spawn(cli, "client", func(p *Proc) {
				for i := 0; i < 5; i++ {
					p.Call(srv, fmt.Sprintf("%s-%d", p.Node(), i), time.Second)
					p.Sleep(time.Duration(p.Rand().Intn(20)) * time.Millisecond)
				}
			})
		}
		e.Run(30 * time.Second)
		e.Close()
		return log
	}
	a, b := runOnce(42), runOnce(42)
	if len(a) == 0 {
		t.Fatal("empty schedule")
	}
	if len(a) != len(b) {
		t.Fatalf("schedule lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
	c := runOnce(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical jittered schedules (suspicious)")
	}
}

func TestSpawnFromProcess(t *testing.T) {
	e := newTestEngine(1)
	var childRan bool
	e.Spawn("n1", "parent", func(p *Proc) {
		p.Spawn("child", func(c *Proc) {
			c.Sleep(10 * time.Millisecond)
			childRan = true
		})
		p.Sleep(time.Millisecond)
	})
	e.Run(time.Second)
	e.Close()
	if !childRan {
		t.Fatal("spawned child never ran")
	}
}

func TestEnterStackTwoLevel(t *testing.T) {
	e := newTestEngine(1)
	var stack []string
	var full []string
	e.Spawn("n1", "p", func(p *Proc) {
		defer p.Enter("outer")()
		func() {
			defer p.Enter("middle")()
			func() {
				defer p.Enter("inner")()
				stack = p.Stack()
				full = p.FullStack()
			}()
		}()
	})
	e.Run(time.Second)
	e.Close()
	if len(stack) != 2 || stack[0] != "middle" || stack[1] != "inner" {
		t.Fatalf("stack = %v, want [middle inner]", stack)
	}
	if len(full) != 3 || full[0] != "outer" {
		t.Fatalf("full stack = %v", full)
	}
}

func TestBranchAccumulationAndReset(t *testing.T) {
	e := newTestEngine(1)
	var before, after []BranchEval
	e.Spawn("n1", "p", func(p *Proc) {
		defer p.Enter("f")()
		p.RecordBranch("b1", true)
		p.RecordBranch("b2", false)
		before = p.LocalBranches()
		p.ResetLocalBranches()
		p.RecordBranch("b3", true)
		after = p.LocalBranches()
	})
	e.Run(time.Second)
	e.Close()
	if len(before) != 2 || before[0].ID != "b1" || before[1].Taken {
		t.Fatalf("before = %v", before)
	}
	if len(after) != 1 || after[0].ID != "b3" {
		t.Fatalf("after = %v", after)
	}
}

func TestBranchesScopedPerFrame(t *testing.T) {
	e := newTestEngine(1)
	var innerTrace, outerTrace []BranchEval
	e.Spawn("n1", "p", func(p *Proc) {
		defer p.Enter("outer")()
		p.RecordBranch("o1", true)
		func() {
			defer p.Enter("inner")()
			p.RecordBranch("i1", false)
			innerTrace = p.LocalBranches()
		}()
		outerTrace = p.LocalBranches()
	})
	e.Run(time.Second)
	e.Close()
	if len(innerTrace) != 1 || innerTrace[0].ID != "i1" {
		t.Fatalf("inner trace = %v", innerTrace)
	}
	if len(outerTrace) != 1 || outerTrace[0].ID != "o1" {
		t.Fatalf("outer trace = %v (inner frame leaked)", outerTrace)
	}
}

func TestEventBudgetStopsRunawayLoop(t *testing.T) {
	e := NewEngine(Options{Seed: 1, MaxEvents: 1000})
	e.Spawn("n1", "spinner", func(p *Proc) {
		for {
			p.Sleep(time.Nanosecond)
		}
	})
	res := e.Run(time.Hour)
	e.Close()
	if res.Reason != StopEventBudget {
		t.Fatalf("reason = %v, want event-budget", res.Reason)
	}
}

func TestAfterRunsAtScheduledTime(t *testing.T) {
	e := newTestEngine(1)
	var at time.Duration
	e.After(700*time.Millisecond, func() { at = e.Now() })
	e.Run(time.Second)
	e.Close()
	if at != 700*time.Millisecond {
		t.Fatalf("After ran at %v, want 700ms", at)
	}
}

func TestEventHeapOrderingProperty(t *testing.T) {
	// Property: for any batch of scheduled times, Run processes them in
	// nondecreasing time order with FIFO tie-breaking by schedule order.
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		e := newTestEngine(7)
		type obs struct {
			at  time.Duration
			seq int
		}
		var got []obs
		for i, r := range raw {
			d := time.Duration(r) * time.Microsecond
			i := i
			e.After(d, func() { got = append(got, obs{e.Now(), i}) })
		}
		e.Run(time.Hour)
		e.Close()
		if len(got) != len(raw) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].at < got[i-1].at {
				return false
			}
			if got[i].at == got[i-1].at && got[i].seq < got[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// settleGoroutines waits briefly for the goroutine count to fall back to
// base and fails the test when it does not.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	for i := 0; i < 100 && runtime.NumGoroutine() > base; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines left, want at most %d", n, base)
	}
}

func TestProcPanicReachesRunCaller(t *testing.T) {
	base := runtime.NumGoroutine()
	e := newTestEngine(1)
	mb := e.NewMailbox("n1", "never")
	e.Spawn("n1", "waiter", func(p *Proc) { p.Recv(mb, -1) })
	e.Spawn("n2", "boom", func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic("kaboom")
	})
	func() {
		defer func() {
			msg := fmt.Sprint(recover())
			if !strings.Contains(msg, `process "boom" on node "n2" panicked: kaboom`) {
				t.Fatalf("Run panic = %q, want the process name and node", msg)
			}
		}()
		e.Run(time.Second)
	}()
	e.Close()
	settleGoroutines(t, base)
}

// TestCloseReleasesBlockedProcesses: Close unwinds every started, unfinished
// process, whatever it was blocked on, and leaves no goroutine behind.
func TestCloseReleasesBlockedProcesses(t *testing.T) {
	base := runtime.NumGoroutine()
	e := newTestEngine(1)
	mb := e.NewMailbox("n1", "never")
	unwound := map[string]bool{}
	spawn := func(node, name string, fn func(p *Proc)) {
		e.Spawn(node, name, func(p *Proc) {
			defer func() { unwound[name] = true }()
			fn(p)
		})
	}
	spawn("n1", "parked", func(p *Proc) { p.Recv(mb, -1) })
	spawn("n1", "sleeping", func(p *Proc) { p.Sleep(time.Hour) })
	spawn("n1", "finished", func(p *Proc) {})
	spawn("n2", "crashed", func(p *Proc) { p.Sleep(time.Hour) })
	e.After(time.Millisecond, func() { e.CrashNode("n2") })
	e.Run(time.Second)
	spawn("n1", "never-started", func(p *Proc) { p.Sleep(time.Hour) })
	e.Close()
	for _, name := range []string{"parked", "sleeping", "finished", "crashed"} {
		if !unwound[name] {
			t.Errorf("%s process not unwound", name)
		}
	}
	if unwound["never-started"] {
		t.Error("never-started process ran")
	}
	settleGoroutines(t, base)
}

func TestCloseSurvivesBlockingCleanup(t *testing.T) {
	base := runtime.NumGoroutine()
	e := newTestEngine(1)
	mb := e.NewMailbox("n1", "never")
	e.Spawn("n1", "defer-sleep", func(p *Proc) {
		defer p.Sleep(time.Second)
		p.Recv(mb, -1)
	})
	e.Spawn("n1", "recover-sleep", func(p *Proc) {
		defer func() {
			recover()
			p.Sleep(time.Second)
			p.Recv(mb, -1)
		}()
		p.Sleep(time.Hour)
	})
	e.Run(time.Second)
	closed := make(chan struct{})
	go func() {
		e.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung on a process that blocks in its deferred cleanup")
	}
	settleGoroutines(t, base)
}

// TestProcGoexitReachesRunCaller: runtime.Goexit in a body (what
// t.FailNow does) ends the goroutine that called Run, not just the process.
func TestProcGoexitReachesRunCaller(t *testing.T) {
	e := newTestEngine(1)
	e.Spawn("n1", "exiter", func(p *Proc) { runtime.Goexit() })
	returned, exited := false, make(chan struct{})
	go func() {
		defer close(exited)
		e.Run(time.Second)
		returned = true
	}()
	<-exited
	if returned {
		t.Fatal("Run returned after a process called runtime.Goexit")
	}
	e.Close()
}

func TestSameSeedEventCountsStable(t *testing.T) {
	count := func() int {
		e := newTestEngine(99)
		mb := e.NewMailbox("b", "in")
		e.Spawn("b", "rx", func(p *Proc) {
			for {
				if _, ok := p.Recv(mb, time.Second); !ok {
					return
				}
			}
		})
		e.Spawn("a", "tx", func(p *Proc) {
			for i := 0; i < 20; i++ {
				p.Send(mb, i)
				p.Sleep(time.Duration(p.Rand().Intn(5)) * time.Millisecond)
			}
		})
		res := e.Run(time.Minute)
		e.Close()
		return res.Events
	}
	if a, b := count(), count(); a != b {
		t.Fatalf("event counts differ across identical runs: %d vs %d", a, b)
	}
}

// BenchmarkProcHandoff measures the park/wake hand-off: per op, a client
// sends to a server's mailbox and waits for the reply; the server works
// for a microsecond of virtual time before answering.
func BenchmarkProcHandoff(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(Options{Seed: 1, MaxEvents: 1 << 62, Jitter: -1})
	req, resp := e.NewMailbox("s", "req"), e.NewMailbox("c", "resp")
	e.Spawn("s", "server", func(p *Proc) {
		for {
			m := p.RecvQ(req)
			p.Sleep(time.Microsecond)
			p.Send(resp, m)
		}
	})
	e.Spawn("c", "client", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Send(req, i)
			p.RecvQ(resp)
		}
	})
	b.ResetTimer()
	e.Run(time.Duration(1 << 62))
	b.StopTimer()
	e.Close()
}
