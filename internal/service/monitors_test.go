package service

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/monitor"
)

// cycleTrace is a minimal JSONL trace closing an a<->b cycle: the EI
// (k=2) exception-class (fc/tc=0) shape the beam matcher chains.
const cycleTrace = `{"t":"hello","v":1,"system":"mon-http"}
{"t":"edge","atMs":0,"edge":{"f":"a","t":"b","k":2,"fc":0,"tc":0,"w":"w1"}}
{"t":"edge","atMs":1,"edge":{"f":"b","t":"a","k":2,"fc":0,"tc":0,"w":"w2"}}
`

func postBody(t *testing.T, url, body string, out any) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/x-ndjson", strings.NewReader(body))
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

// TestMonitorHTTPLifecycle drives the monitor surface end to end:
// create, ingest a cycle-closing trace, read the alert backlog over
// SSE, check listing/status/metrics, delete.
func TestMonitorHTTPLifecycle(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()

	var st MonitorStatus
	if resp := postJSON(t, srv.URL+"/v1/monitors", MonitorSpec{Name: "live"}, &st); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	if st.ID == "" {
		t.Fatal("create returned no id")
	}

	// Unknown fields must be rejected, like every other spec endpoint.
	if resp := postJSON(t, srv.URL+"/v1/monitors", map[string]any{"bogus": 1}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown spec field: status %d", resp.StatusCode)
	}

	var res IngestResponse
	if resp := postBody(t, srv.URL+"/v1/monitors/"+st.ID+"/events", cycleTrace+"garbage line\n", &res); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d", resp.StatusCode)
	}
	if res.Records != 3 || res.Skipped != 1 || res.CyclesActive != 1 {
		t.Fatalf("ingest response: %+v", res)
	}
	if len(res.Alerts) != 1 || res.Alerts[0].Kind != "closed" {
		t.Fatalf("ingest alerts: %+v", res.Alerts)
	}

	// Status and listing reflect the ingest.
	var got MonitorStatus
	getJSON(t, srv.URL+"/v1/monitors/"+st.ID, &got)
	if got.Stats.Records != 3 || got.Stats.Skipped != 1 || got.Stats.Alerts != 1 {
		t.Fatalf("status stats: %+v", got.Stats)
	}
	if got.Stats.System != "mon-http" {
		t.Fatalf("status system: %q", got.Stats.System)
	}
	var list []MonitorStatus
	getJSON(t, srv.URL+"/v1/monitors", &list)
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("listing: %+v", list)
	}

	// Backlog-only SSE replay (?follow=0) ends after the recorded alerts.
	resp, err := http.Get(srv.URL + "/v1/monitors/" + st.ID + "/alerts?follow=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("alerts content-type: %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	typ, data, err := readSSE(sc)
	if err != nil {
		t.Fatal(err)
	}
	if typ != "alert" {
		t.Fatalf("event type %q", typ)
	}
	var a monitor.Alert
	if err := json.Unmarshal(data, &a); err != nil {
		t.Fatalf("alert payload %q: %v", data, err)
	}
	if a.Kind != "closed" || a.Signature != res.Alerts[0].Signature {
		t.Fatalf("replayed alert: %+v", a)
	}
	if _, _, err := readSSE(sc); err != io.EOF {
		t.Fatalf("follow=0 stream must end after backlog, got %v", err)
	}

	// Metrics expose the monitor counters.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"csnaked_monitors_active 1",
		"csnaked_monitor_records_total 3",
		"csnaked_monitor_skipped_total 1",
		"csnaked_monitor_alerts_total 1",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Delete; the monitor is gone from the API.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/monitors/"+st.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", dresp.StatusCode)
	}
	if r := getJSON(t, srv.URL+"/v1/monitors/"+st.ID, nil); r.StatusCode != http.StatusNotFound {
		t.Fatalf("status after delete: %d", r.StatusCode)
	}
}

// TestMonitorLiveAlertStream checks a follow subscriber sees an alert
// from an ingest that happens after it connected, and that deleting the
// monitor ends the stream.
func TestMonitorLiveAlertStream(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()

	var st MonitorStatus
	postJSON(t, srv.URL+"/v1/monitors", MonitorSpec{}, &st)

	resp, err := http.Get(srv.URL + "/v1/monitors/" + st.ID + "/alerts")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Wait until the subscriber is registered before ingesting, so the
	// alert must arrive via the live channel, not the backlog.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var cur MonitorStatus
		getJSON(t, srv.URL+"/v1/monitors/"+st.ID, &cur)
		if cur.Subscribers == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("subscriber never registered")
		}
		time.Sleep(5 * time.Millisecond)
	}

	postBody(t, srv.URL+"/v1/monitors/"+st.ID+"/events", cycleTrace, nil)

	sc := bufio.NewScanner(resp.Body)
	typ, data, err := readSSE(sc)
	if err != nil {
		t.Fatal(err)
	}
	var a monitor.Alert
	if typ != "alert" || json.Unmarshal(data, &a) != nil || a.Kind != "closed" {
		t.Fatalf("live alert: type=%q data=%s", typ, data)
	}

	// Deleting the monitor closes the live stream.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/monitors/"+st.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if _, _, err := readSSE(sc); err != io.EOF {
		t.Fatalf("stream must end on delete, got %v", err)
	}
}

// TestMonitorsEndWithDaemon: monitors live as long as the daemon. After
// a restart on the same data directory none is listed, the old id is
// unknown, the id sequence starts over, and the journal -- compacted at
// boot -- holds the job's records only.
func TestMonitorsEndWithDaemon(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, Config{Workers: 1, DataDir: dir})
	a, err := m.CreateMonitor(MonitorSpec{Name: "keep", WindowMS: 60_000, Buckets: 6})
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.CreateMonitor(MonitorSpec{Name: "drop"})
	if err != nil {
		t.Fatal(err)
	}
	rt, _ := m.getMonitor(a.ID)
	if _, err := rt.mon.Ingest(strings.NewReader(cycleTrace)); err != nil {
		t.Fatal(err)
	}
	if err := m.DeleteMonitor(b.ID); err != nil {
		t.Fatal(err)
	}
	st, err := m.Submit(tinySpec(7))
	if err != nil {
		t.Fatal(err)
	}
	m.Await(st.ID)
	m.Close()

	m2 := newTestManager(t, Config{Workers: 1, DataDir: dir})
	if mons := m2.Monitors(); len(mons) != 0 {
		t.Fatalf("monitors after restart = %+v, want none", mons)
	}
	if _, ok := m2.getMonitor(a.ID); ok {
		t.Fatalf("monitor %s survived the restart", a.ID)
	}
	if c, err := m2.CreateMonitor(MonitorSpec{}); err != nil || c.ID != "mon-1" {
		t.Fatalf("first monitor after restart = %+v / %v, want mon-1", c, err)
	}
	if rows := journalRows(t, dir); strings.Join(rows, " ") != "submit: state:succeeded" {
		t.Fatalf("journal rows = %v, want the job's submit and state only", rows)
	}
}
