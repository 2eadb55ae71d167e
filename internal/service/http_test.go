package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"atomique/internal/compiler"
	"atomique/internal/hardware"
)

func newTestServer(t *testing.T, cfg Config) (*Engine, *httptest.Server) {
	t.Helper()
	e := New(cfg)
	srv := httptest.NewServer(e.Handler())
	t.Cleanup(func() {
		srv.Close()
		e.Close()
	})
	return e, srv
}

func postJSON(t *testing.T, url string, body interface{}) (*http.Response, []byte) {
	t.Helper()
	js, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func getJSON(t *testing.T, url string, v interface{}) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

const ghzQASM = `OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
cx q[2],q[3];
`

func TestHTTPCompileQASM(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 2})
	resp, body := postJSON(t, srv.URL+"/v1/compile", Request{QASM: ghzQASM, Seed: 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var j Job
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatal(err)
	}
	if j.State != StateDone || len(j.Result) == 0 {
		t.Fatalf("job = %+v", j)
	}
	var env struct {
		CircuitHash string `json:"circuitHash"`
		Metrics     struct {
			Arch    string `json:"arch"`
			NQubits int    `json:"nQubits"`
			N2Q     int    `json:"n2Q"`
		} `json:"metrics"`
		FidelityTotal float64 `json:"fidelityTotal"`
	}
	if err := json.Unmarshal(j.Result, &env); err != nil {
		t.Fatal(err)
	}
	if env.Metrics.Arch != "Atomique" || env.Metrics.NQubits != 4 || env.Metrics.N2Q != 3 {
		t.Errorf("envelope metrics = %+v", env.Metrics)
	}
	if env.FidelityTotal <= 0 || env.FidelityTotal > 1 {
		t.Errorf("fidelityTotal = %v", env.FidelityTotal)
	}
	if env.CircuitHash != j.CircuitHash {
		t.Errorf("envelope hash %q != job hash %q", env.CircuitHash, j.CircuitHash)
	}
}

func TestHTTPCompileNamedBenchmark(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 2})
	resp, body := postJSON(t, srv.URL+"/v1/compile", Request{Benchmark: "h2-4", Seed: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var j Job
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatal(err)
	}
	if j.Benchmark != "H2-4" { // lookup is case-insensitive, name canonical
		t.Errorf("benchmark = %q, want H2-4", j.Benchmark)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})

	// Malformed QASM: 400 with the offending line number.
	resp, body := postJSON(t, srv.URL+"/v1/compile", Request{QASM: "OPENQASM 2.0;\nqreg q[2];\nbogus q[0];"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 (body %s)", resp.StatusCode, body)
	}
	var eb struct {
		Error string `json:"error"`
		Line  int    `json:"line"`
	}
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Line != 3 || !strings.Contains(eb.Error, "bogus") {
		t.Errorf("error body = %+v, want line 3 mentioning the gate", eb)
	}

	// Unknown benchmark: 400.
	resp, _ = postJSON(t, srv.URL+"/v1/compile", Request{Benchmark: "nope"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown benchmark status = %d, want 400", resp.StatusCode)
	}

	// Oversized machine override: 400 from resolve, before any allocation.
	resp, body = postJSON(t, srv.URL+"/v1/compile", Request{Benchmark: "H2-4", AODs: 16777216})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "trap sites") {
		t.Errorf("oversized override: status = %d, body %s; want 400 naming the site bound", resp.StatusCode, body)
	}

	// Unknown fields: 400 (catches client typos like "benchmrk").
	resp2, err := http.Post(srv.URL+"/v1/compile", "application/json", strings.NewReader(`{"benchmrk":"H2-4"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field status = %d, want 400", resp2.StatusCode)
	}

	// Unknown job: 404.
	if resp := getJSON(t, srv.URL+"/v1/jobs/job-424242", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", resp.StatusCode)
	}
}

// TestHTTPBatchConcurrencyAndCache is the service acceptance scenario: one
// batch of 10 requests (8 distinct + 2 duplicates) compiles concurrently;
// duplicates coalesce into cache hits; an identical repeat of the full batch
// is all hits and returns byte-identical result JSON, verified via /v1/stats.
func TestHTTPBatchConcurrencyAndCache(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 4})

	reqs := make([]Request, 0, 10)
	for seed := int64(1); seed <= 8; seed++ {
		reqs = append(reqs, Request{Benchmark: "H2-4", Seed: seed})
	}
	reqs = append(reqs, Request{Benchmark: "H2-4", Seed: 1}, Request{Benchmark: "H2-4", Seed: 2})

	resp, body := postJSON(t, srv.URL+"/v1/compile/batch", batchRequest{Requests: reqs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var br batchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Jobs) != len(reqs) {
		t.Fatalf("jobs = %d, want %d", len(br.Jobs), len(reqs))
	}
	for i, j := range br.Jobs {
		if j.State != StateDone {
			t.Fatalf("job %d state = %s (%s)", i, j.State, j.Error)
		}
	}
	// Duplicates must be byte-identical to their originals, modulo the
	// request-scoped trace splice.
	if !bytes.Equal(stripTrace(t, br.Jobs[8].Result), stripTrace(t, br.Jobs[0].Result)) ||
		!bytes.Equal(stripTrace(t, br.Jobs[9].Result), stripTrace(t, br.Jobs[1].Result)) {
		t.Error("duplicate requests returned different result bytes")
	}

	var st Stats
	getJSON(t, srv.URL+"/v1/stats", &st)
	if st.CacheMisses != 8 {
		t.Errorf("misses = %d, want 8", st.CacheMisses)
	}
	if st.CacheHits != 2 {
		t.Errorf("hits = %d, want 2", st.CacheHits)
	}

	// Re-send the identical batch: no new compilations, identical bytes.
	resp, body = postJSON(t, srv.URL+"/v1/compile/batch", batchRequest{Requests: reqs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat status = %d", resp.StatusCode)
	}
	var br2 batchResponse
	if err := json.Unmarshal(body, &br2); err != nil {
		t.Fatal(err)
	}
	for i := range br2.Jobs {
		if !br2.Jobs[i].Cached {
			t.Errorf("repeat job %d not served from cache", i)
		}
		if !bytes.Equal(stripTrace(t, br2.Jobs[i].Result), stripTrace(t, br.Jobs[i].Result)) {
			t.Errorf("repeat job %d result bytes differ", i)
		}
	}
	getJSON(t, srv.URL+"/v1/stats", &st)
	if st.CacheMisses != 8 {
		t.Errorf("misses after repeat = %d, want 8 (no recompilation)", st.CacheMisses)
	}
	if st.CacheHits != 12 {
		t.Errorf("hits after repeat = %d, want 12", st.CacheHits)
	}
}

func TestHTTPAsyncJobLifecycleAndCancel(t *testing.T) {
	backend := newBlockingBackend()
	e := newEngine(Config{Workers: 1, QueueSize: 4}, backend.compile)
	srv := httptest.NewServer(e.Handler())
	defer func() {
		srv.Close()
		e.Close()
	}()

	resp, body := postJSON(t, srv.URL+"/v1/compile?async=1", Request{Benchmark: "H2-4", Seed: 1})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var j Job
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatal(err)
	}
	<-backend.started

	// Cancel it over HTTP.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+j.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d", dresp.StatusCode)
	}
	final := waitState(t, e, j.ID, StateCancelled)
	if final.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", final.State)
	}
	var got Job
	getJSON(t, srv.URL+"/v1/jobs/"+j.ID, &got)
	if got.State != StateCancelled {
		t.Errorf("GET job state = %s, want cancelled", got.State)
	}
	// Cancelling again conflicts.
	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+j.ID, nil)
	dresp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusConflict {
		t.Errorf("re-cancel status = %d, want 409", dresp.StatusCode)
	}
}

func TestHTTPBackpressure429(t *testing.T) {
	backend := newBlockingBackend()
	e := newEngine(Config{Workers: 1, QueueSize: 1}, backend.compile)
	srv := httptest.NewServer(e.Handler())
	defer func() {
		srv.Close()
		e.Close()
	}()

	// Occupy the worker, then the queue slot.
	postJSON(t, srv.URL+"/v1/compile?async=1", Request{Benchmark: "H2-4", Seed: 1})
	<-backend.started
	postJSON(t, srv.URL+"/v1/compile?async=1", Request{Benchmark: "H2-4", Seed: 2})

	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, body := postJSON(t, srv.URL+"/v1/compile?async=1", Request{Benchmark: "H2-4", Seed: 3})
		if resp.StatusCode == http.StatusTooManyRequests {
			var eb errorBody
			if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
				t.Errorf("429 body = %s", body)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never saw 429, last status %d", resp.StatusCode)
		}
	}
	var st Stats
	getJSON(t, srv.URL+"/v1/stats", &st)
	if st.Rejected == 0 {
		t.Error("stats rejected = 0, want > 0")
	}
	close(backend.release)
}

func TestHTTPInfoEndpoints(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})

	var health map[string]string
	if resp := getJSON(t, srv.URL+"/v1/healthz", &health); resp.StatusCode != http.StatusOK || health["status"] != "ok" {
		t.Errorf("healthz = %v", health)
	}

	var infos []benchmarkInfo
	getJSON(t, srv.URL+"/v1/benchmarks", &infos)
	if len(infos) < 17 {
		t.Fatalf("benchmarks = %d, want >= 17 (Table II)", len(infos))
	}
	found := false
	for _, b := range infos {
		if b.Name == "QAOA-regu5-40" && b.NQubits == 40 && b.N2Q > 0 {
			found = true
		}
	}
	if !found {
		t.Error("QAOA-regu5-40 missing or malformed in /v1/benchmarks")
	}

	var st Stats
	if resp := getJSON(t, srv.URL+"/v1/stats", &st); resp.StatusCode != http.StatusOK {
		t.Errorf("stats status = %d", resp.StatusCode)
	}
	if st.Workers != 1 || st.QueueCapacity != 64 {
		t.Errorf("stats = %+v", st)
	}
}

// TestHTTPBackendsEndpoint covers GET /v1/backends: every built-in backend
// is listed with capabilities, and exactly one is marked default.
func TestHTTPBackendsEndpoint(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})

	var infos []backendInfo
	if resp := getJSON(t, srv.URL+"/v1/backends", &infos); resp.StatusCode != http.StatusOK {
		t.Fatalf("backends status = %d", resp.StatusCode)
	}
	want := map[string]bool{"atomique": false, "geyser": false, "qpilot": false, "sabre": false, "solverref": false, "zoned": false}
	defaults := 0
	for _, b := range infos {
		if _, ok := want[b.Name]; ok {
			want[b.Name] = true
		}
		if b.Default {
			defaults++
			if b.Name != DefaultBackend {
				t.Errorf("default backend = %q, want %q", b.Name, DefaultBackend)
			}
		}
		if b.Capabilities.Description == "" {
			t.Errorf("backend %q has no description", b.Name)
		}
		if !b.Capabilities.FPQA && !b.Capabilities.Coupling && !b.Capabilities.Zoned {
			t.Errorf("backend %q advertises no target kind", b.Name)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("backend %q missing from /v1/backends", name)
		}
	}
	if defaults != 1 {
		t.Errorf("%d backends marked default, want 1", defaults)
	}
}

// TestHTTPBackendSelection exercises the backend request field end to end:
// a known non-default backend compiles and stamps the envelope, an unknown
// name is a structured 400 (not a 500), and mismatched device options 400.
func TestHTTPBackendSelection(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 2})

	resp, body := postJSON(t, srv.URL+"/v1/compile", Request{QASM: ghzQASM, Backend: "qpilot", Seed: 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("qpilot status = %d, body %s", resp.StatusCode, body)
	}
	var j Job
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatal(err)
	}
	if j.Backend != "qpilot" {
		t.Errorf("job backend = %q, want qpilot", j.Backend)
	}
	var env struct {
		Backend string `json:"backend"`
		Metrics struct {
			Arch string `json:"arch"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(j.Result, &env); err != nil {
		t.Fatal(err)
	}
	if env.Backend != "qpilot" || env.Metrics.Arch != "Q-Pilot" {
		t.Errorf("envelope = %+v, want qpilot/Q-Pilot", env)
	}

	// The sabre backend with an explicit family works through the registry.
	resp, body = postJSON(t, srv.URL+"/v1/compile", Request{QASM: ghzQASM, Backend: "sabre", Family: "triangular"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sabre status = %d, body %s", resp.StatusCode, body)
	}

	// Unknown backend: structured 400 naming the discovery endpoint.
	resp, body = postJSON(t, srv.URL+"/v1/compile", Request{QASM: ghzQASM, Backend: "zap"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown backend status = %d, want 400 (body %s)", resp.StatusCode, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("unknown-backend body not structured JSON: %s", body)
	}
	if !strings.Contains(eb.Error, "zap") || !strings.Contains(eb.Error, "/v1/backends") {
		t.Errorf("error = %q, want backend name and discovery hint", eb.Error)
	}

	// Device options that do not match the backend's target kind: 400.
	if resp, _ := postJSON(t, srv.URL+"/v1/compile", Request{QASM: ghzQASM, Backend: "sabre", SLM: 8}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("sabre+slm status = %d, want 400", resp.StatusCode)
	}
	if resp, _ := postJSON(t, srv.URL+"/v1/compile", Request{QASM: ghzQASM, Backend: "atomique", Family: "triangular"}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("atomique+family status = %d, want 400", resp.StatusCode)
	}
	if resp, _ := postJSON(t, srv.URL+"/v1/compile", Request{QASM: ghzQASM, Backend: "sabre", Family: "hexagonal"}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad family status = %d, want 400", resp.StatusCode)
	}
}

// TestHTTPZonedBackend exercises the zoned backend end to end: the auto
// target compiles, a zone-geometry override threads through, and mismatched
// requests are structured 400s (including options outside the backend's
// declared capabilities).
func TestHTTPZonedBackend(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 2})

	resp, body := postJSON(t, srv.URL+"/v1/compile", Request{QASM: ghzQASM, Backend: "zoned", Seed: 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("zoned status = %d, body %s", resp.StatusCode, body)
	}
	var j Job
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatal(err)
	}
	var env struct {
		Backend string `json:"backend"`
		Metrics struct {
			Arch       string `json:"arch"`
			MoveStages int    `json:"moveStages"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(j.Result, &env); err != nil {
		t.Fatal(err)
	}
	if env.Backend != "zoned" || env.Metrics.Arch != "Zoned-FPQA" {
		t.Errorf("envelope = %+v, want zoned/Zoned-FPQA", env)
	}
	if env.Metrics.MoveStages == 0 {
		t.Error("zoned compile reported no shuttle stages")
	}

	// Zone-geometry override threads through (and alters the cache key: a
	// one-gate-site machine serialises the rounds).
	zones := compiler.ZonedSpec{Geometry: hardware.ZonesFor(4)}
	zones.Geometry.EntangleSites = 1
	resp, body = postJSON(t, srv.URL+"/v1/compile", Request{QASM: ghzQASM, Backend: "zoned", Zones: &zones})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("zoned+zones status = %d, body %s", resp.StatusCode, body)
	}

	// Mismatches: machine/family flags on zoned, zones on non-zoned, an
	// invalid geometry, an undersized storage zone, and an undeclared
	// option.
	for name, req := range map[string]Request{
		"zoned+slm":      {QASM: ghzQASM, Backend: "zoned", SLM: 8},
		"zoned+family":   {QASM: ghzQASM, Backend: "zoned", Family: "triangular"},
		"atomique+zones": {QASM: ghzQASM, Backend: "atomique", Zones: &compiler.ZonedSpec{Geometry: hardware.DefaultZones()}},
		"bad geometry":   {QASM: ghzQASM, Backend: "zoned", Zones: &compiler.ZonedSpec{Geometry: hardware.ZoneGeometry{StorageRows: -1}}},
		"tiny storage": {QASM: ghzQASM, Backend: "zoned", Zones: &compiler.ZonedSpec{
			Geometry: hardware.ZoneGeometry{StorageRows: 1, StorageCols: 2, EntangleSites: 1,
				ZoneGap: 60e-6, ShuttleSpeed: 0.55}}},
		"zoned+exact": {QASM: ghzQASM, Backend: "zoned", Exact: true},
	} {
		if resp, body := postJSON(t, srv.URL+"/v1/compile", req); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s status = %d, want 400 (body %s)", name, resp.StatusCode, body)
		}
	}
}

func TestStatsUptime(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	if st := e.Stats(); st.UptimeSeconds < 0 {
		t.Errorf("uptime = %v", st.UptimeSeconds)
	}
}
