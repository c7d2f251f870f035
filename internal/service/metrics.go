// This file is the observability surface: a Prometheus-style text
// exposition at /metrics (hand-rolled -- no client library dependency)
// and a JSON liveness summary at /healthz.

package service

import (
	"fmt"
	"net/http"
	"strings"
	"time"
)

// Metrics is a point-in-time snapshot of the service counters.
type Metrics struct {
	JobsRunning   int   `json:"jobsRunning"`
	JobsQueued    int   `json:"jobsQueued"`
	JobsSucceeded int   `json:"jobsSucceeded"`
	JobsFailed    int   `json:"jobsFailed"`
	JobsCancelled int   `json:"jobsCancelled"`
	PoolCapacity  int   `json:"poolCapacity"`
	PoolInUse     int   `json:"poolInUse"`
	SimsTotal     int64 `json:"simsTotal"`
	RoundsTotal   int64 `json:"roundsTotal"`
	// Self-healing counters: failed attempts retried, jobs resumed from
	// the journal after a daemon restart, campaign panics contained by
	// the crash-isolation barrier, and submissions rejected by admission
	// control (queue full or load shed).
	JobsRetried       int64 `json:"jobsRetried"`
	JobsResumed       int64 `json:"jobsResumed"`
	JobsPanics        int64 `json:"jobsPanics"`
	AdmissionRejected int64 `json:"admissionRejected"`
	GraphsStored      int   `json:"graphsStored"`
	UptimeSeconds     int64 `json:"uptimeSeconds"`
	// Online-monitor counters: live instances plus lifetime ingest totals
	// (records parsed, malformed/oversized lines skipped, alerts fired --
	// deleted monitors included).
	MonitorsActive      int   `json:"monitorsActive"`
	MonitorRecordsTotal int64 `json:"monitorRecordsTotal"`
	MonitorSkippedTotal int64 `json:"monitorSkippedTotal"`
	MonitorAlertsTotal  int64 `json:"monitorAlertsTotal"`
}

// Snapshot collects the current metrics.
func (m *Manager) Snapshot() Metrics {
	m.mu.Lock()
	s := Metrics{
		JobsRunning:       m.running,
		JobsQueued:        len(m.queue),
		JobsSucceeded:     m.terminal[StateSucceeded],
		JobsFailed:        m.terminal[StateFailed],
		JobsCancelled:     m.terminal[StateCancelled],
		SimsTotal:         m.simsTotal,
		RoundsTotal:       m.roundsTotal,
		JobsRetried:       m.retries,
		JobsResumed:       m.resumed,
		JobsPanics:        m.panics,
		AdmissionRejected: m.admissionRejected,
	}
	m.mu.Unlock()
	s.PoolCapacity = m.pool.Cap()
	s.PoolInUse = m.pool.InUse()
	s.GraphsStored = m.store.Len()
	s.UptimeSeconds = int64(time.Since(m.start).Seconds())
	m.monMu.Lock()
	s.MonitorsActive = len(m.mons)
	m.monMu.Unlock()
	s.MonitorRecordsTotal = m.monRecords.Load()
	s.MonitorSkippedTotal = m.monSkipped.Load()
	s.MonitorAlertsTotal = m.monAlerts.Load()
	return s
}

func (m *Manager) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s := m.Snapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	lines := []struct {
		name, help string
		value      int64
	}{
		{"csnaked_jobs_running", "Campaign jobs currently executing.", int64(s.JobsRunning)},
		{"csnaked_jobs_queued", "Campaign jobs waiting for a run slot.", int64(s.JobsQueued)},
		{"csnaked_jobs_succeeded_total", "Campaign jobs finished successfully.", int64(s.JobsSucceeded)},
		{"csnaked_jobs_failed_total", "Campaign jobs finished in error.", int64(s.JobsFailed)},
		{"csnaked_jobs_cancelled_total", "Campaign jobs cancelled.", int64(s.JobsCancelled)},
		{"csnaked_pool_capacity", "Shared simulation worker tokens.", int64(s.PoolCapacity)},
		{"csnaked_pool_inuse", "Shared worker tokens currently held.", int64(s.PoolInUse)},
		{"csnaked_sims_total", "Simulated executions across finished jobs.", s.SimsTotal},
		{"csnaked_rounds_total", "Anytime rounds completed across all jobs.", s.RoundsTotal},
		{"csnaked_jobs_retries_total", "Failed attempts retried with backoff.", s.JobsRetried},
		{"csnaked_jobs_resumed_total", "Jobs recovered from the journal after a restart.", s.JobsResumed},
		{"csnaked_jobs_panics_total", "Campaign panics contained by the crash-isolation barrier.", s.JobsPanics},
		{"csnaked_admission_rejected_total", "Submissions rejected by admission control.", s.AdmissionRejected},
		{"csnaked_graphs_stored", "Graph artifacts in the store.", int64(s.GraphsStored)},
		{"csnaked_monitors_active", "Online cascade monitors currently registered.", int64(s.MonitorsActive)},
		{"csnaked_monitor_records_total", "Trace records ingested across all monitors.", s.MonitorRecordsTotal},
		{"csnaked_monitor_skipped_total", "Malformed or oversized trace lines skipped.", s.MonitorSkippedTotal},
		{"csnaked_monitor_alerts_total", "Cycle alerts fired across all monitors.", s.MonitorAlertsTotal},
		{"csnaked_uptime_seconds", "Seconds since the service started.", s.UptimeSeconds},
	}
	for _, l := range lines {
		// Prometheus naming convention: a _total series only ever grows.
		typ := "gauge"
		if strings.HasSuffix(l.name, "_total") {
			typ = "counter"
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", l.name, l.help, l.name, typ, l.name, l.value)
	}
}

func (m *Manager) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status  string  `json:"status"`
		Metrics Metrics `json:"metrics"`
	}{Status: "ok", Metrics: m.Snapshot()})
}
