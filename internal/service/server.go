// This file is the HTTP surface of csnaked: REST endpoints over the job
// manager and graph store, plus the SSE round stream. Handlers are thin
// -- every decision lives in the manager/store so the API stays an
// encoding layer.

package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/core/beam"
	"repro/internal/faults"
	"repro/internal/report"
)

// NewServer wires the REST + SSE API over a manager.
func NewServer(m *Manager) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", m.handleSubmit)
	mux.HandleFunc("GET /v1/campaigns", m.handleList)
	mux.HandleFunc("GET /v1/campaigns/{id}", m.handleStatus)
	mux.HandleFunc("DELETE /v1/campaigns/{id}", m.handleCancel)
	mux.HandleFunc("GET /v1/campaigns/{id}/events", m.handleEvents)
	mux.HandleFunc("GET /v1/campaigns/{id}/report", m.handleReport)
	mux.HandleFunc("GET /v1/campaigns/{id}/cycles", m.handleCycles)
	mux.HandleFunc("GET /v1/graphs", m.handleGraphs)
	mux.HandleFunc("GET /v1/graphs/{id}", m.handleGraph)
	mux.HandleFunc("POST /v1/graphs/merge", m.handleMerge)
	mux.HandleFunc("POST /v1/monitors", m.handleMonitorCreate)
	mux.HandleFunc("GET /v1/monitors", m.handleMonitors)
	mux.HandleFunc("GET /v1/monitors/{id}", m.handleMonitorStatus)
	mux.HandleFunc("DELETE /v1/monitors/{id}", m.handleMonitorDelete)
	mux.HandleFunc("POST /v1/monitors/{id}/events", m.handleMonitorIngest)
	mux.HandleFunc("GET /v1/monitors/{id}/alerts", m.handleMonitorAlerts)
	mux.HandleFunc("GET /metrics", m.handleMetrics)
	mux.HandleFunc("GET /healthz", m.handleHealthz)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// decodeBody decodes the JSON request body into v, rejecting unknown
// fields; on failure it answers 400 "bad <what>: ..." and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "bad %s: %v", what, err)
		return false
	}
	return true
}

func (m *Manager) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec CampaignSpec
	if !decodeBody(w, r, "campaign spec", &spec) {
		return
	}
	st, err := m.Submit(spec)
	if err != nil {
		// Admission-control rejections are transient: tell clients when to
		// come back. Everything else is a malformed spec.
		switch {
		case errors.Is(err, ErrQueueFull) || errors.Is(err, ErrOverloaded):
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "%v", err)
		case errors.Is(err, ErrDraining):
			w.Header().Set("Retry-After", "5")
			writeError(w, http.StatusServiceUnavailable, "%v", err)
		default:
			writeError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	writeJSON(w, http.StatusAccepted, SubmitResponse{ID: st.ID, State: st.State})
}

func (m *Manager) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, m.List())
}

func (m *Manager) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := m.Status(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (m *Manager) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := m.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleEvents serves the SSE stream: named events ("round", "state")
// with a JSON Event payload each. The stream replays recorded rounds,
// then follows the job live, and ends after the terminal state event.
func (m *Manager) handleEvents(w http.ResponseWriter, r *http.Request) {
	ch, unsubscribe, err := m.Subscribe(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	defer unsubscribe()
	streamSSE(w, r, ch, func(ev Event) string { return ev.Type })
}

// reportOrError fetches the request's job report; without one it answers
// 404 (no such job) or 409 (no report yet) itself and returns nil.
func (m *Manager) reportOrError(w http.ResponseWriter, r *http.Request) *report.JSONReport {
	rep, st, err := m.Report(r.PathValue("id"))
	switch {
	case err == nil:
		return rep
	case st == nil:
		writeError(w, http.StatusNotFound, "%v", err)
	default:
		writeError(w, http.StatusConflict, "%v", err)
	}
	return nil
}

func (m *Manager) handleReport(w http.ResponseWriter, r *http.Request) {
	if rep := m.reportOrError(w, r); rep != nil {
		writeJSON(w, http.StatusOK, rep)
	}
}

func (m *Manager) handleCycles(w http.ResponseWriter, r *http.Request) {
	if rep := m.reportOrError(w, r); rep != nil {
		writeJSON(w, http.StatusOK, rep.Clusters)
	}
}

func (m *Manager) handleGraphs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, m.store.List())
}

// handleGraph serves the raw schema-v1 graph document, byte-identical
// to what graph.WriteFile would have produced.
func (m *Manager) handleGraph(w http.ResponseWriter, r *http.Request) {
	art, ok := m.store.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown graph %q", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(art.Data())
}

// handleMerge stitches stored graphs server-side and, when research is
// requested, runs the offline cycle search over the merged graph --
// the same graph.Merge + beam.SearchGraph pipeline the csnake CLI's
// -research flag runs on files.
func (m *Manager) handleMerge(w http.ResponseWriter, r *http.Request) {
	var req MergeRequest
	if !decodeBody(w, r, "merge request", &req) {
		return
	}
	art, merged, err := m.store.Merge(req.Graphs)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp := MergeResponse{Graph: art.Info}
	if req.Research {
		cycles := beam.SearchGraph(merged, nil, beam.Options{})
		clusters := beam.ClusterCycles(cycles, func(faults.ID) (int, bool) { return 0, false })
		resp.Cycles = len(cycles)
		resp.Clusters = report.JSONClustersOf(clusters, nil)
	}
	writeJSON(w, http.StatusOK, resp)
}
