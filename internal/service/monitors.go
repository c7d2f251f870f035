// This file is the online-monitoring surface of csnaked: named monitor
// instances wrap internal/monitor engines, ingest JSONL trace batches
// over HTTP, and fan closed/broken cycle alerts out to SSE subscribers.
// Monitors are journaled like jobs (create/delete records), so a daemon
// restart re-creates them empty -- their evidence is stream-sourced and
// re-ingestable by the producer, unlike campaign state which the service
// itself owns.

package service

import (
	"fmt"
	"net/http"
	"slices"
	"time"

	"repro/internal/monitor"
)

// monitorBacklog bounds the per-monitor alert replay buffer; beyond it
// the oldest alerts are dropped (their Seq numbers expose the gap).
const monitorBacklog = 1024

// monitorRuntime pairs a monitor engine with its service identity and
// alert fan-out. The engine serializes ingestion itself; the fan-out's
// mutex also guards the replay backlog.
type monitorRuntime struct {
	id      string
	seq     int
	spec    MonitorSpec
	created time.Time
	mon     *monitor.Monitor

	// No drop debt: a lost alert shows as a gap in the Seq numbers.
	fan    fanout[monitor.Alert]
	alerts []monitor.Alert
}

func newMonitorRuntime(id string, seq int, spec MonitorSpec, created time.Time) *monitorRuntime {
	rt := &monitorRuntime{id: id, seq: seq, spec: spec, created: created}
	rt.mon = monitor.New(monitor.Config{
		Window:  time.Duration(spec.WindowMS) * time.Millisecond,
		Buckets: spec.Buckets,
		OnAlert: rt.onAlert,
	})
	return rt
}

// createRecord renders the monitor's journal "mon-create" record.
func (rt *monitorRuntime) createRecord() journalRecord {
	spec := rt.spec
	return journalRecord{T: "mon-create", Job: rt.id, Seq: rt.seq, Created: rt.created, MonSpec: &spec}
}

// onAlert records the alert in the replay backlog and offers it to every
// live subscriber without blocking (a slow consumer drops alerts, never
// stalls ingestion).
func (rt *monitorRuntime) onAlert(a monitor.Alert) {
	rt.fan.publish(a, func() {
		rt.alerts = append(rt.alerts, a)
		if len(rt.alerts) > monitorBacklog {
			rt.alerts = rt.alerts[len(rt.alerts)-monitorBacklog:]
		}
	})
}

// subscribe attaches an alert stream: the backlog, then (follow) live.
func (rt *monitorRuntime) subscribe(buffer int, follow bool) (<-chan monitor.Alert, func()) {
	return rt.fan.subscribe(buffer, func() ([]monitor.Alert, bool) { return rt.alerts, follow })
}

func errUnknownMonitor(id string) error { return fmt.Errorf("unknown monitor %q", id) }

// CreateMonitor registers a new online monitor and journals it.
func (m *Manager) CreateMonitor(spec MonitorSpec) (*MonitorStatus, error) {
	if spec.WindowMS < 0 {
		return nil, fmt.Errorf("windowMs = %d: must be non-negative", spec.WindowMS)
	}
	if spec.Buckets < 0 {
		return nil, fmt.Errorf("buckets = %d: must be non-negative", spec.Buckets)
	}
	m.monMu.Lock()
	m.monSeq++
	rt := newMonitorRuntime(fmt.Sprintf("mon-%d", m.monSeq), m.monSeq, spec, time.Now())
	m.mons[rt.id] = rt
	m.monOrder = append(m.monOrder, rt.id)
	m.monMu.Unlock()
	m.jlog(rt.createRecord())
	return m.monitorStatus(rt), nil
}

// DeleteMonitor removes a monitor, ends its alert streams, and journals
// the deletion. Its lifetime counters stay in /metrics.
func (m *Manager) DeleteMonitor(id string) error {
	m.monMu.Lock()
	rt, ok := m.dropMonitorLocked(id)
	m.monMu.Unlock()
	if !ok {
		return errUnknownMonitor(id)
	}
	rt.fan.close()
	m.jlog(journalRecord{T: "mon-delete", Job: id, Seq: rt.seq})
	return nil
}

// dropMonitorLocked removes a monitor from the table and the listing
// order, live or replaying a deletion. Caller holds monMu.
func (m *Manager) dropMonitorLocked(id string) (*monitorRuntime, bool) {
	rt, ok := m.mons[id]
	if ok {
		delete(m.mons, id)
		m.monOrder = slices.DeleteFunc(m.monOrder, func(q string) bool { return q == id })
	}
	return rt, ok
}

// getMonitor looks a runtime up by id.
func (m *Manager) getMonitor(id string) (*monitorRuntime, bool) {
	m.monMu.Lock()
	defer m.monMu.Unlock()
	rt, ok := m.mons[id]
	return rt, ok
}

// Monitors lists every monitor's status in creation order.
func (m *Manager) Monitors() []*MonitorStatus {
	m.monMu.Lock()
	rts := make([]*monitorRuntime, 0, len(m.monOrder))
	for _, id := range m.monOrder {
		rts = append(rts, m.mons[id])
	}
	m.monMu.Unlock()
	// Engine stats are read outside monMu: Stats takes the engine's own
	// lock, which an in-flight Ingest may hold for a while.
	out := make([]*MonitorStatus, len(rts))
	for i, rt := range rts {
		out[i] = m.monitorStatus(rt)
	}
	return out
}

func (m *Manager) monitorStatus(rt *monitorRuntime) *MonitorStatus {
	return &MonitorStatus{
		ID:          rt.id,
		Spec:        rt.spec,
		Created:     rt.created,
		Stats:       rt.mon.Stats(),
		Subscribers: rt.fan.subscribers(),
	}
}

// monitorOr404 resolves the request's {id} to a monitor, answering 404
// itself (and returning nil) when there is none.
func (m *Manager) monitorOr404(w http.ResponseWriter, r *http.Request) *monitorRuntime {
	rt, ok := m.getMonitor(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "%v", errUnknownMonitor(r.PathValue("id")))
		return nil
	}
	return rt
}

func (m *Manager) handleMonitorCreate(w http.ResponseWriter, r *http.Request) {
	var spec MonitorSpec
	if !decodeBody(w, r, "monitor spec", &spec) {
		return
	}
	st, err := m.CreateMonitor(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, st)
}

func (m *Manager) handleMonitors(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, m.Monitors())
}

func (m *Manager) handleMonitorStatus(w http.ResponseWriter, r *http.Request) {
	if rt := m.monitorOr404(w, r); rt != nil {
		writeJSON(w, http.StatusOK, m.monitorStatus(rt))
	}
}

// handleMonitorIngest feeds the request body (JSONL trace records) into
// the monitor and returns the batch summary, alerts included. Malformed
// lines are counted in the response, never a request failure.
func (m *Manager) handleMonitorIngest(w http.ResponseWriter, r *http.Request) {
	rt := m.monitorOr404(w, r)
	if rt == nil {
		return
	}
	res, err := rt.mon.Ingest(r.Body)
	m.monRecords.Add(res.Records)
	m.monSkipped.Add(res.Skipped)
	m.monAlerts.Add(int64(len(res.Alerts)))
	if err != nil {
		// The body died mid-stream; everything parsed before the error is
		// already applied, so report what happened with the partial counts.
		writeError(w, http.StatusBadRequest, "ingest: %v (after %d records)", err, res.Records)
		return
	}
	writeJSON(w, http.StatusOK, IngestResponse(res))
}

// handleMonitorAlerts serves the alert stream as SSE "alert" events:
// the recorded backlog first, then live alerts as batches ingest.
// ?follow=0 ends the stream after the backlog (for scripted consumers).
func (m *Manager) handleMonitorAlerts(w http.ResponseWriter, r *http.Request) {
	rt := m.monitorOr404(w, r)
	if rt == nil {
		return
	}
	ch, unsubscribe := rt.subscribe(m.cfg.subBuffer, r.URL.Query().Get("follow") != "0")
	defer unsubscribe()
	streamSSE(w, r, ch, func(monitor.Alert) string { return "alert" })
}

func (m *Manager) handleMonitorDelete(w http.ResponseWriter, r *http.Request) {
	if err := m.DeleteMonitor(r.PathValue("id")); err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Deleted string `json:"deleted"`
	}{Deleted: r.PathValue("id")})
}
