package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core/beam"
	"repro/internal/core/graph"
	"repro/internal/faults"
	"repro/internal/report"

	_ "repro/internal/systems/metastore"
)

// metaSpec is the proven MetaStore early-stop recipe (the anytime
// example): converges in ~16 rounds and detects both seeded Raft storms.
func metaSpec(seed int64) map[string]any {
	return map[string]any{
		"system":            "metastore",
		"seed":              seed,
		"reps":              3,
		"delayMagnitudesMs": []int64{500, 2000, 8000},
		"earlyStopRounds":   3,
		"waveSize":          4,
	}
}

func postJSON(t *testing.T, url string, body any, out any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decode: %v", url, err)
		}
	}
	return resp
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
	return resp
}

// readSSE parses one "event:"+"data:" pair from the stream.
func readSSE(sc *bufio.Scanner) (string, []byte, error) {
	var typ string
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			typ = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "" && typ != "":
			return typ, data, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", nil, err
	}
	return "", nil, io.EOF
}

// TestServiceEndToEnd drives the full HTTP surface the way a client
// would: submit a MetaStore early-stop campaign, watch its rounds arrive
// over SSE while it runs, read the final report (both seeded Raft storms
// detected), run a second campaign, and merge the two persisted graphs
// server-side -- asserting the merge's cycle signatures are identical to
// the offline graph.Merge + beam.SearchGraph pipeline.
func TestServiceEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full MetaStore campaigns; run without -short")
	}
	m := newTestManager(t, Config{Workers: 4, MaxJobs: 2})
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()

	var sub SubmitResponse
	if resp := postJSON(t, srv.URL+"/v1/campaigns", metaSpec(42), &sub); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}

	// Stream rounds live. The SSE contract: round events arrive while the
	// campaign is still running, strictly before the terminal state event
	// that ends the stream.
	stream, err := http.Get(srv.URL + "/v1/campaigns/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content-type = %q", ct)
	}
	sc := bufio.NewScanner(stream.Body)
	var rounds int
	var terminal Event
	var stateMidStream JobState
	for {
		typ, data, err := readSSE(sc)
		if err != nil {
			t.Fatalf("stream ended without a terminal state event: %v", err)
		}
		var ev Event
		if err := json.Unmarshal(data, &ev); err != nil {
			t.Fatalf("bad event payload %q: %v", data, err)
		}
		if typ == "round" {
			rounds++
			if rounds == 1 {
				// The job is observably alive mid-stream.
				var st JobStatus
				getJSON(t, srv.URL+"/v1/campaigns/"+sub.ID, &st)
				stateMidStream = st.State
			}
			continue
		}
		terminal = ev
		break
	}
	if rounds == 0 {
		t.Fatal("no round events arrived before the terminal state")
	}
	if terminal.State != StateSucceeded {
		t.Fatalf("terminal state = %s (%s)", terminal.State, terminal.Error)
	}
	if stateMidStream != StateRunning && stateMidStream != StateSucceeded {
		t.Fatalf("mid-stream status = %s", stateMidStream)
	}

	// Report: both seeded storms detected.
	var rep report.JSONReport
	if resp := getJSON(t, srv.URL+"/v1/campaigns/"+sub.ID+"/report", &rep); resp.StatusCode != http.StatusOK {
		t.Fatalf("report: status %d", resp.StatusCode)
	}
	if !rep.EarlyStopped {
		t.Error("early-stop campaign did not early-stop")
	}
	detected := strings.Join(rep.DetectedBugs, ",")
	for _, bug := range []string{"RAFT-1", "RAFT-2"} {
		if !strings.Contains(detected, bug) {
			t.Fatalf("detected bugs %v, missing %s", rep.DetectedBugs, bug)
		}
	}
	if len(rep.Rounds) != rounds {
		t.Errorf("report has %d rounds, stream delivered %d", len(rep.Rounds), rounds)
	}

	// Second campaign (different seed), awaited via the manager.
	var sub2 SubmitResponse
	postJSON(t, srv.URL+"/v1/campaigns", metaSpec(43), &sub2)
	if st, err := m.Await(sub2.ID); err != nil || st.State != StateSucceeded {
		t.Fatalf("second campaign: %v / %v", st, err)
	}

	st1, _ := m.Status(sub.ID)
	st2, _ := m.Status(sub2.ID)
	if st1.GraphID == "" || st2.GraphID == "" {
		t.Fatalf("missing graph artifacts: %q %q", st1.GraphID, st2.GraphID)
	}

	// Both graphs are served raw; rebuild them client-side.
	offline := graph.New()
	for _, id := range []string{st1.GraphID, st2.GraphID} {
		resp, err := http.Get(srv.URL + "/v1/graphs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("graph %s: status %d err %v", id, resp.StatusCode, err)
		}
		g := graph.New()
		if err := g.UnmarshalJSON(data); err != nil {
			t.Fatalf("graph %s did not round-trip: %v", id, err)
		}
		offline.Merge(g)
	}

	// Server-side merge + re-search vs. the offline pipeline.
	var merged MergeResponse
	if resp := postJSON(t, srv.URL+"/v1/graphs/merge",
		MergeRequest{Graphs: []string{st1.GraphID, st2.GraphID}, Research: true}, &merged); resp.StatusCode != http.StatusOK {
		t.Fatalf("merge: status %d", resp.StatusCode)
	}
	if merged.Graph.System != "MetaStore" {
		t.Errorf("merged graph system = %q", merged.Graph.System)
	}
	wantCycles := beam.SearchGraph(offline, nil, beam.Options{})
	wantClusters := beam.ClusterCycles(wantCycles, func(faults.ID) (int, bool) { return 0, false })
	if merged.Cycles != len(wantCycles) {
		t.Fatalf("server merge found %d cycles, offline search %d", merged.Cycles, len(wantCycles))
	}
	if len(merged.Clusters) != len(wantClusters) {
		t.Fatalf("server merge has %d clusters, offline %d", len(merged.Clusters), len(wantClusters))
	}
	for i, wc := range wantClusters {
		got := merged.Clusters[i]
		if got.Key != wc.Key || got.Cycles != len(wc.Cycles) {
			t.Fatalf("cluster %d: got (%s, %d), offline (%s, %d)",
				i, got.Key, got.Cycles, wc.Key, len(wc.Cycles))
		}
		if want := wc.Cycles[0].String(); got.Best.Chain != want {
			t.Fatalf("cluster %d best cycle:\n  server:  %s\n  offline: %s", i, got.Best.Chain, want)
		}
	}

	// The merged artifact is itself served and loadable.
	var infos []GraphInfo
	getJSON(t, srv.URL+"/v1/graphs", &infos)
	if len(infos) != 3 {
		t.Fatalf("graph list has %d artifacts, want 3", len(infos))
	}

	// Observability.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"# TYPE csnaked_jobs_succeeded_total counter\ncsnaked_jobs_succeeded_total 2",
		"# TYPE csnaked_graphs_stored gauge\ncsnaked_graphs_stored 3",
		"csnaked_jobs_running 0",
	} {
		if !strings.Contains(string(mbody), want) {
			t.Errorf("metrics missing %q:\n%s", want, mbody)
		}
	}
	var health struct {
		Status  string  `json:"status"`
		Metrics Metrics `json:"metrics"`
	}
	getJSON(t, srv.URL+"/healthz", &health)
	if health.Status != "ok" || health.Metrics.JobsSucceeded != 2 {
		t.Fatalf("healthz = %+v", health)
	}
}

// TestServiceHTTPErrors pins the error status codes.
func TestServiceHTTPErrors(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, MaxJobs: 1})
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()

	check := func(method, path string, body string, want int) {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s %s: status %d, want %d", method, path, resp.StatusCode, want)
		}
	}

	check("POST", "/v1/campaigns", `{"system":"no-such-system"}`, http.StatusBadRequest)
	check("POST", "/v1/campaigns", `{"system":"svc-tiny","bogusField":1}`, http.StatusBadRequest)
	// A removed spec field is an unknown field like any other.
	check("POST", "/v1/campaigns", `{"system":"svc-tiny","`+removedSpecField+`":true}`, http.StatusBadRequest)
	check("GET", "/v1/campaigns/job-404", "", http.StatusNotFound)
	check("DELETE", "/v1/campaigns/job-404", "", http.StatusNotFound)
	check("GET", "/v1/campaigns/job-404/events", "", http.StatusNotFound)
	check("GET", "/v1/campaigns/job-404/report", "", http.StatusNotFound)
	check("GET", "/v1/graphs/g-404", "", http.StatusNotFound)
	check("POST", "/v1/graphs/merge", `{"graphs":[]}`, http.StatusBadRequest)
	check("POST", "/v1/graphs/merge", `{"graphs":["g-404"]}`, http.StatusBadRequest)

	// A job still running answers /report with 409, not 404.
	var sub SubmitResponse
	postJSON(t, srv.URL+"/v1/campaigns", tinySpec(7), &sub)
	var sub2 SubmitResponse
	postJSON(t, srv.URL+"/v1/campaigns", tinySpec(8), &sub2) // queued behind sub
	st, _ := m.Status(sub2.ID)
	if st.State == StateQueued {
		check("GET", "/v1/campaigns/"+sub2.ID+"/report", "", http.StatusConflict)
	}
	m.Await(sub.ID)
	m.Await(sub2.ID)
	_ = fmt.Sprintf
}
