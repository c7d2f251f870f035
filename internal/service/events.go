// This file is the package's one fan-out: job events (rounds and state
// transitions) and monitor alerts both reach their subscribers through a
// fanout, and both SSE endpoints drain a subscription with streamSSE. A
// subscription replays what was recorded before it attached, then goes
// live; a subscriber that cannot keep up loses items and never blocks
// the campaign or the ingest that produced them.

package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
)

// fanout delivers a stream of items to its subscribers. Its mutex
// serializes publish, subscribe and close, so subscribers see items in
// publication order and an offer never races a channel close. Lock
// order: strictly before Manager.mu (which the job replay takes inside
// subscribe), so offers happen outside the manager-wide lock.
type fanout[T any] struct {
	mu sync.Mutex
	// subs maps each live subscriber's channel to its drop debt: the items
	// it lost to a full buffer since the last one delivered.
	subs   map[chan T]int
	closed bool
	// debt, when set, stamps a subscriber's drop debt onto the next item
	// that fits; streams whose items carry a sequence number leave it nil.
	debt func(T, int) T
}

// subscribe attaches a consumer. backlog runs under the fan-out mutex
// and returns the items to replay plus whether to go live after them.
// The replay never drops: the channel holds it all, plus buffer live
// items. Without follow, or on a closed fan-out, the channel closes
// behind the replay. The returned func detaches the consumer (safe twice).
func (f *fanout[T]) subscribe(buffer int, backlog func() (replay []T, follow bool)) (<-chan T, func()) {
	f.mu.Lock()
	defer f.mu.Unlock()
	replay, follow := backlog()
	ch := make(chan T, len(replay)+buffer)
	for _, v := range replay {
		ch <- v
	}
	if !follow || f.closed {
		close(ch)
		return ch, func() {}
	}
	if f.subs == nil {
		f.subs = make(map[chan T]int)
	}
	f.subs[ch] = 0
	return ch, func() {
		f.mu.Lock()
		defer f.mu.Unlock()
		delete(f.subs, ch)
	}
}

// publish offers v to every subscriber without blocking: a full buffer
// loses the item and runs up drop debt. record, when non-nil, runs first
// under the same lock hold; a producer that appends to its replay
// backlog there has every subscriber see the item exactly once.
func (f *fanout[T]) publish(v T, record func()) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if record != nil {
		record()
	}
	for ch, dropped := range f.subs {
		item := v
		if f.debt != nil {
			item = f.debt(v, dropped)
		}
		select {
		case ch <- item:
			f.subs[ch] = 0
		default:
			f.subs[ch] = dropped + 1
		}
	}
}

// close ends every stream; later subscriptions get only the replay.
func (f *fanout[T]) close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	for ch := range f.subs {
		close(ch)
	}
	f.subs = nil
}

// subscribers counts the live subscriptions.
func (f *fanout[T]) subscribers() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.subs)
}

// Subscribe attaches an event stream to a job: the channel replays every
// recorded round, then delivers live events, and closes after the
// "state" event that ends the stream -- terminal, or interrupted by a
// drain (at once, for a job already there). A round sealed meanwhile is
// replayed or live, possibly both, never neither. The caller must drain
// the channel and call the returned unsubscribe func.
func (m *Manager) Subscribe(id string) (<-chan Event, func(), error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, nil, errUnknownJob(id)
	}
	// Jobs are never removed from m.jobs, so the re-lock cannot lose j.
	ch, unsubscribe := j.events.subscribe(m.cfg.subBuffer, func() ([]Event, bool) {
		m.mu.Lock()
		defer m.mu.Unlock()
		replay := make([]Event, 0, len(j.rounds)+1)
		for i := range j.rounds {
			r := j.rounds[i]
			replay = append(replay, Event{Type: "round", Job: j.ID, Round: &r})
		}
		if j.state.endsStream() {
			return append(replay, j.stateEventLocked()), false
		}
		return replay, true
	})
	return ch, unsubscribe, nil
}

// streamSSE serves a subscription as server-sent events (named by name,
// JSON payload) until the channel closes or the client goes away. It
// flushes whenever it has caught up with the channel: a replayed backlog
// goes out in one write, live items at once.
func streamSSE[T any](w http.ResponseWriter, r *http.Request, ch <-chan T, name func(T) string) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	for {
		select {
		case v, open := <-ch:
			if !open {
				return
			}
			data, err := json.Marshal(v)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name(v), data); err != nil {
				return
			}
			if len(ch) == 0 {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}
