// This file is the round fan-out: each job keeps a list of subscribers,
// every completed round (and the terminal state transition) is offered
// to each subscriber's buffered channel, and a subscriber that cannot
// keep up loses rounds -- never blocks the campaign. Subscribing to a
// job replays the rounds recorded so far before going live, so a late
// subscriber still sees the whole trajectory.

package service

// subscriber is one event stream consumer. dropped counts rounds lost
// to a full buffer since the last delivered event; it is folded into
// the next event that does fit, so consumers can detect gaps.
type subscriber struct {
	ch      chan Event
	dropped int
}

// Subscribe attaches an event stream to a job: the returned channel
// first replays every recorded round, then delivers live events, and is
// closed after the terminal "state" event (immediately, for an already
// terminal job). The caller must drain the channel and eventually call
// Unsubscribe (idempotent; unnecessary after the channel closes but
// always safe).
func (m *Manager) Subscribe(id string) (<-chan Event, func(), error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, nil, errUnknownJob(id)
	}
	// Lock order: the per-job emit mutex strictly before the manager
	// lock (publish and closeSubs do the same). Holding it across the
	// backlog replay and the registration keeps per-subscriber event
	// order intact: a concurrent publish either lands entirely before
	// (its round is in the replayed backlog) or entirely after (the
	// subscriber is registered and gets it live). Jobs are never removed
	// from m.jobs, so the re-lock cannot lose j.
	j.emitMu.Lock()
	defer j.emitMu.Unlock()
	m.mu.Lock()
	sub := &subscriber{ch: make(chan Event, m.cfg.SubBuffer)}
	// Replay the backlog into the buffer. A backlog larger than the
	// buffer degrades gracefully: the overflow counts as dropped rounds,
	// exactly like falling behind live.
	for i := range j.rounds {
		r := j.rounds[i]
		ev := Event{Type: "round", Job: j.ID, Round: &r}
		if !sub.offer(ev) {
			break
		}
	}
	if j.state.Terminal() {
		sub.offer(Event{Type: "state", Job: j.ID, State: j.state, Error: j.err})
		close(sub.ch)
		m.mu.Unlock()
		return sub.ch, func() {}, nil
	}
	j.subs = append(j.subs, sub)
	m.mu.Unlock()
	return sub.ch, func() { m.unsubscribe(j, sub) }, nil
}

// offer delivers ev without blocking, folding in any drop debt; it
// reports whether the event was enqueued.
func (s *subscriber) offer(ev Event) bool {
	ev.Dropped = s.dropped
	select {
	case s.ch <- ev:
		s.dropped = 0
		return true
	default:
		s.dropped++
		return false
	}
}

// publish offers ev to every subscriber of j. The per-job emit mutex
// serializes offers against Subscribe's backlog replay (so a subscriber
// observes rounds in order) and against closeSubs (so an offer never
// races a channel close); the contended manager lock is held only long
// enough to snapshot the subscriber list, and the fan-out itself runs
// outside it -- subscriber activity can no longer extend the wave-seal
// critical section that RoundCompleted and the API handlers share.
func (m *Manager) publish(j *Job, ev Event) {
	j.emitMu.Lock()
	defer j.emitMu.Unlock()
	m.mu.Lock()
	subs := append([]*subscriber(nil), j.subs...)
	m.mu.Unlock()
	for _, s := range subs {
		s.offer(ev)
	}
}

// closeSubs closes every subscriber channel of a terminal job and
// detaches them. Holding the emit mutex across the close excludes any
// in-flight publish fan-out, which would otherwise offer on a closed
// channel.
func (m *Manager) closeSubs(j *Job) {
	j.emitMu.Lock()
	defer j.emitMu.Unlock()
	m.mu.Lock()
	subs := j.subs
	j.subs = nil
	m.mu.Unlock()
	for _, s := range subs {
		close(s.ch)
	}
}

func (m *Manager) unsubscribe(j *Job, sub *subscriber) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, s := range j.subs {
		if s == sub {
			j.subs = append(j.subs[:i], j.subs[i+1:]...)
			return
		}
	}
}
