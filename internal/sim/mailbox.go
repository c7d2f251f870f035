package sim

import (
	"fmt"
	"time"
)

// Mailbox is an unbounded, FIFO message queue attached to a node. Multiple
// processes may Recv from the same mailbox, forming a worker pool; this is
// the primitive the target systems use to model RPC handler threads and
// bounded service capacity.
type Mailbox struct {
	eng  *Engine
	id   int
	node string
	name string
	// queue[head:] are the pending messages: popping advances head and the
	// backing array is reclaimed whenever the queue fully drains, so a
	// busy mailbox reaches a steady state with no per-message growth.
	queue   []interface{}
	head    int
	waiters []*Proc
}

// NewMailbox creates a mailbox hosted on the given node. Messages to a
// mailbox are subject to the node's partitions, pauses, and crashes.
func (e *Engine) NewMailbox(node, name string) *Mailbox {
	e.nextMailboxID++
	return &Mailbox{eng: e, id: e.nextMailboxID, node: node, name: name}
}

// Node returns the hosting node.
func (mb *Mailbox) Node() string { return mb.node }

// Name returns the mailbox name.
func (mb *Mailbox) Name() string { return mb.name }

// Len returns the number of queued (undelivered-to-a-waiter) messages.
// Systems use it to implement load probes and ad-hoc throttling.
func (mb *Mailbox) Len() int { return len(mb.queue) - mb.head }

func (mb *Mailbox) String() string { return fmt.Sprintf("%s/%s", mb.node, mb.name) }

// deliver enqueues the message and wakes one waiter. Runs in engine context.
func (mb *Mailbox) deliver(body interface{}) {
	mb.queue = append(mb.queue, body)
	for len(mb.waiters) > 0 {
		w := mb.waiters[0]
		mb.waiters = mb.waiters[1:]
		if w.done || w.killed || mb.eng.crashed[w.node] {
			continue
		}
		w.wakeNow()
		break
	}
}

// Send delivers body to mb after the network latency between the calling
// process's node and the mailbox's node. Sends never block. Messages are
// dropped silently when the link is partitioned or the destination node is
// crashed, exactly like a datagram network; paused destinations hold the
// message until resume.
func (p *Proc) Send(to *Mailbox, body interface{}) {
	p.SendAfter(0, to, body)
}

// SendAfter is Send with an extra artificial delay before the message
// enters the network. Deliveries are value events (evDeliver), not
// closures: a send allocates nothing beyond any boxing of body itself.
func (p *Proc) SendAfter(extra time.Duration, to *Mailbox, body interface{}) {
	if p.killed {
		panic(errKilled)
	}
	e := p.eng
	lat := e.latency(e.rng, p.node, to.node) + extra
	e.scheduleDeliver(e.now+lat, to, body, p.node)
}

// Recv dequeues the next message from mb, blocking up to timeout. A
// negative timeout blocks forever. The second result is false on timeout.
func (p *Proc) Recv(mb *Mailbox, timeout time.Duration) (interface{}, bool) {
	if p.killed {
		panic(errKilled)
	}
	if mb.Len() > 0 {
		return mb.pop(), true
	}
	deadline := p.eng.now + timeout
	for {
		mb.waiters = append(mb.waiters, p)
		p.block(timeout)
		if mb.Len() > 0 {
			mb.removeWaiter(p)
			return mb.pop(), true
		}
		if timeout >= 0 && p.eng.now >= deadline {
			mb.removeWaiter(p)
			return nil, false
		}
		// Spurious wake (message consumed by another pool worker);
		// re-arm with the remaining timeout.
		mb.removeWaiter(p)
		if timeout >= 0 {
			timeout = deadline - p.eng.now
		}
	}
}

func (mb *Mailbox) pop() interface{} {
	m := mb.queue[mb.head]
	mb.queue[mb.head] = nil // release the reference
	mb.head++
	switch {
	case mb.head == len(mb.queue):
		mb.queue = mb.queue[:0]
		mb.head = 0
	case mb.head >= 32 && mb.head*2 >= len(mb.queue):
		// Compact once the dead prefix dominates, so a never-draining
		// mailbox (retry storms) keeps memory O(live backlog) instead of
		// O(total messages delivered).
		n := copy(mb.queue, mb.queue[mb.head:])
		clear(mb.queue[n:])
		mb.queue = mb.queue[:n]
		mb.head = 0
	}
	return m
}

func (mb *Mailbox) removeWaiter(p *Proc) {
	for i, w := range mb.waiters {
		if w == p {
			mb.waiters = append(mb.waiters[:i], mb.waiters[i+1:]...)
			return
		}
	}
}

// Req is the conventional request envelope used by Call/Serve.
type Req struct {
	ReplyTo *Mailbox
	Body    interface{}
}

// Resp is the conventional response envelope used by Call/Serve.
type Resp struct {
	Body interface{}
	Err  error
}

// Call performs a synchronous RPC: it sends Req{ReplyTo, body} to the
// destination mailbox and waits up to timeout for a Resp. Timeouts return
// ErrTimeout -- the caller cannot distinguish a slow server from a dead
// one, which is the ambiguity cascading failures exploit.
func (p *Proc) Call(to *Mailbox, body interface{}, timeout time.Duration) (interface{}, error) {
	reply := p.eng.NewMailbox(p.node, "reply")
	p.Send(to, Req{ReplyTo: reply, Body: body})
	m, ok := p.Recv(reply, timeout)
	if !ok {
		return nil, ErrTimeout
	}
	resp, isResp := m.(Resp)
	if !isResp {
		return m, nil
	}
	return resp.Body, resp.Err
}

// Reply answers a Req received from Call.
func (p *Proc) Reply(req Req, body interface{}, err error) {
	if req.ReplyTo == nil {
		return
	}
	p.Send(req.ReplyTo, Resp{Body: body, Err: err})
}
