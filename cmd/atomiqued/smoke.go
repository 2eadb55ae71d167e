package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"time"

	"atomique/internal/obs"
	"atomique/internal/service"
)

// runSmoke is the -smoke mode: serve the real handler on an ephemeral
// loopback port, drive a compile and a noisy simulate through it over HTTP,
// check the simulate reused the cached compilation (/v1/stats passRuns),
// and verify the observability surface end to end — /metrics parses as valid
// Prometheus exposition and carries the expected families, and /v1/traces
// returns the jobs' trace IDs with full span trees. CI runs this as its
// boot-and-scrape job.
func runSmoke(engine *service.Engine, logger *slog.Logger) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: engine.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go srv.Serve(ln) //nolint:errcheck // torn down via Close below
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	logger.Info("smoke server up", "addr", ln.Addr().String())

	client := &http.Client{Timeout: 60 * time.Second}
	post := func(path, traceID string, body any) (*service.Job, error) {
		js, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(js))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		if traceID != "" {
			req.Header.Set(service.TraceHeader, traceID)
		}
		resp, err := client.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, raw)
		}
		var jv service.Job
		if err := json.Unmarshal(raw, &jv); err != nil {
			return nil, fmt.Errorf("POST %s: decode: %w", path, err)
		}
		if jv.State != service.StateDone {
			return nil, fmt.Errorf("POST %s: job state %s (%s)", path, jv.State, jv.Error)
		}
		if echoed := resp.Header.Get(service.TraceHeader); echoed != jv.TraceID {
			return nil, fmt.Errorf("POST %s: header trace %q != job trace %q", path, echoed, jv.TraceID)
		}
		return &jv, nil
	}

	compiled, err := post("/v1/compile", "smoke-compile", service.Request{Benchmark: "H2-4", Seed: 1})
	if err != nil {
		return err
	}
	simulated, err := post("/v1/simulate", "", service.Request{Benchmark: "H2-4", Seed: 1, Shots: 256})
	if err != nil {
		return err
	}
	if compiled.TraceID != "smoke-compile" {
		return fmt.Errorf("client trace ID not honoured: got %q", compiled.TraceID)
	}

	// The simulate shares the compile's inputs, so it must reuse the cached
	// compilation: one pass-pipeline run across both requests.
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		return err
	}
	var stats service.Stats
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("GET /v1/stats: decode: %w", err)
	}
	if stats.PassRuns != 1 {
		return fmt.Errorf("/v1/stats passRuns = %d after a compile and a simulate of one circuit, want 1", stats.PassRuns)
	}

	// /metrics must be valid exposition and cover both request classes.
	resp, err = client.Get(base + "/metrics")
	if err != nil {
		return err
	}
	expo, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	samples, err := obs.ParseExposition(bytes.NewReader(expo))
	if err != nil {
		return fmt.Errorf("/metrics exposition invalid: %w", err)
	}
	for _, want := range []string{
		`atomique_request_duration_seconds_p50{backend="atomique",class="compile"}`,
		`atomique_request_duration_seconds_p99{backend="atomique",class="simulate"}`,
		`atomique_requests_total{backend="atomique",class="compile",outcome="done"}`,
		`atomique_queue_wait_seconds_count`,
		`atomique_cache_events_total{event="miss"}`,
		`atomique_trajectory_shots_total`,
		`atomique_workers_busy`,
	} {
		if !strings.Contains(string(expo), want) {
			return fmt.Errorf("/metrics missing %q", want)
		}
	}
	logger.Info("metrics exposition valid", "samples", samples)

	// /v1/traces must return both jobs' traces with populated span trees.
	for _, id := range []string{compiled.TraceID, simulated.TraceID} {
		resp, err := client.Get(base + "/v1/traces/" + id)
		if err != nil {
			return err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET /v1/traces/%s: status %d", id, resp.StatusCode)
		}
		var tv struct {
			TraceID string            `json:"traceId"`
			Spans   *obs.SpanSnapshot `json:"spans"`
		}
		if err := json.Unmarshal(raw, &tv); err != nil {
			return err
		}
		if tv.TraceID != id || tv.Spans == nil || len(tv.Spans.Children) == 0 {
			return fmt.Errorf("trace %s incomplete: %s", id, raw)
		}
	}
	logger.Info("traces browsable", "compile", compiled.TraceID, "simulate", simulated.TraceID)

	// The negotiated OpenMetrics form must carry trace-ID exemplars, end in
	// # EOF, and still satisfy the strict parser.
	omReq, err := http.NewRequest(http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return err
	}
	omReq.Header.Set("Accept", "application/openmetrics-text; version=1.0.0")
	omResp, err := client.Do(omReq)
	if err != nil {
		return err
	}
	om, err := io.ReadAll(omResp.Body)
	omResp.Body.Close()
	if err != nil {
		return err
	}
	if ct := omResp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text") {
		return fmt.Errorf("negotiated scrape content type %q", ct)
	}
	if _, err := obs.ParseExposition(bytes.NewReader(om)); err != nil {
		return fmt.Errorf("OpenMetrics exposition invalid: %w", err)
	}
	if !strings.Contains(string(om), `# {trace_id="`) {
		return fmt.Errorf("OpenMetrics scrape carries no exemplars")
	}
	if !strings.HasSuffix(strings.TrimRight(string(om), "\n"), "# EOF") {
		return fmt.Errorf("OpenMetrics scrape does not end with # EOF")
	}
	logger.Info("openmetrics exposition valid, exemplars present")

	// /v1/slo must report every objective evaluated and healthy — the smoke
	// traffic is far too small to burn budget.
	resp, err = client.Get(base + "/v1/slo")
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	var sloStatus struct {
		Worst      string `json:"worst"`
		Objectives []struct {
			Name  string `json:"name"`
			State string `json:"state"`
		} `json:"objectives"`
	}
	if err := json.Unmarshal(raw, &sloStatus); err != nil {
		return fmt.Errorf("GET /v1/slo: decode: %w", err)
	}
	if sloStatus.Worst != "ok" || len(sloStatus.Objectives) == 0 {
		return fmt.Errorf("GET /v1/slo: worst=%q objectives=%d, want ok with objectives: %s",
			sloStatus.Worst, len(sloStatus.Objectives), raw)
	}
	logger.Info("slo engine healthy", "objectives", len(sloStatus.Objectives))

	// A manual flight-recorder trigger must produce a complete bundle with
	// non-empty profiles.
	trigResp, err := client.Post(base+"/v1/debug/bundles?reason=smoke", "application/json", nil)
	if err != nil {
		return err
	}
	trigRaw, err := io.ReadAll(trigResp.Body)
	trigResp.Body.Close()
	if err != nil {
		return err
	}
	if trigResp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("POST /v1/debug/bundles: status %d: %s", trigResp.StatusCode, trigRaw)
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(trigRaw, &created); err != nil || created.ID == "" {
		return fmt.Errorf("POST /v1/debug/bundles: bad response %s", trigRaw)
	}
	var bundle obs.BundleMeta
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := client.Get(base + "/v1/debug/bundles/" + created.ID)
		if err != nil {
			return err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET /v1/debug/bundles/%s: status %d", created.ID, resp.StatusCode)
		}
		if err := json.Unmarshal(raw, &bundle); err != nil {
			return err
		}
		if bundle.Complete {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bundle %s not complete after 30s", created.ID)
		}
		time.Sleep(100 * time.Millisecond)
	}
	want := map[string]bool{"cpu.pprof": false, "goroutine.pprof": false, "heap.pprof": false,
		"traces.json": false, "admission.json": false, "stats.json": false,
		"config.json": false, "metrics.prom": false}
	for _, f := range bundle.Files {
		if _, ok := want[f.Name]; ok {
			want[f.Name] = f.Bytes > 0 && f.Error == ""
		}
	}
	for name, ok := range want {
		if !ok {
			return fmt.Errorf("bundle %s: file %s missing, empty, or errored: %+v", created.ID, name, bundle.Files)
		}
	}
	logger.Info("flight recorder bundle complete", "bundle", created.ID, "files", len(bundle.Files))
	return nil
}
