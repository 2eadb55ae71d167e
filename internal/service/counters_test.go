package service

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"atomique/internal/admission"
	"atomique/internal/circuit"
	"atomique/internal/compiler"
	"atomique/internal/metrics"
	"atomique/internal/obs"
)

// metricSum totals the samples of family name in a text exposition whose
// label set contains every pair in labels (written `key="value"`).
func metricSum(t *testing.T, exposition, name string, labels ...string) float64 {
	t.Helper()
	var sum float64
	for _, line := range strings.Split(exposition, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		series := line[:i]
		family, labelSet, _ := strings.Cut(series, "{")
		if family != name {
			continue
		}
		matched := true
		for _, l := range labels {
			matched = matched && strings.Contains(labelSet, l)
		}
		if !matched {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		sum += v
	}
	return sum
}

// assertCountersAgree scrapes /v1/stats and /metrics from a quiescent
// engine and checks every /v1/stats counter against the /metrics series
// that counts the same events. nonzero names the counters the scenario
// drove, so agreement cannot pass vacuously at zero.
func assertCountersAgree(t *testing.T, srvURL string, nonzero ...string) {
	t.Helper()
	var st Stats
	getJSON(t, srvURL+"/v1/stats", &st)
	resp, err := http.Get(srvURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ParseExposition(bytes.NewReader(body)); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	exp := string(body)
	type pair struct {
		stat, metric float64
	}
	views := map[string]pair{
		"submitted":    {float64(st.Submitted), metricSum(t, exp, "atomique_admission_decisions_total", `decision="admitted"`)},
		"completed":    {float64(st.Completed), metricSum(t, exp, "atomique_requests_total", `outcome="done"`)},
		"failed":       {float64(st.Failed), metricSum(t, exp, "atomique_requests_total", `outcome="failed"`)},
		"cancelled":    {float64(st.Cancelled), metricSum(t, exp, "atomique_requests_total", `outcome="cancelled"`)},
		"rejected":     {float64(st.Rejected), metricSum(t, exp, "atomique_requests_total", `outcome="rejected"`)},
		"panics":       {float64(st.Panics), metricSum(t, exp, "atomique_panics_total")},
		"cacheHits":    {float64(st.CacheHits), metricSum(t, exp, "atomique_cache_events_total", `event="hit"`)},
		"cacheMisses":  {float64(st.CacheMisses), metricSum(t, exp, "atomique_cache_events_total", `event="miss"`)},
		"cacheEntries": {float64(st.CacheEntries), metricSum(t, exp, "atomique_cache_entries")},
	}
	for pass, sec := range st.PassSeconds {
		views["passSeconds."+pass] = pair{sec, metricSum(t, exp, "atomique_pass_seconds_total", `pass="`+pass+`"`)}
	}
	if a := st.Admission; a != nil {
		views["shedInteractiveTotal"] = pair{float64(a.ShedInteractiveTotal),
			metricSum(t, exp, "atomique_admission_decisions_total", `priority="interactive"`, `decision="shed"`)}
		views["shedBatchTotal"] = pair{float64(a.ShedBatchTotal),
			metricSum(t, exp, "atomique_admission_decisions_total", `priority="batch"`, `decision="shed"`)}
	}
	for name, v := range views {
		if v.stat != v.metric {
			t.Errorf("%s: /v1/stats %v, /metrics %v", name, v.stat, v.metric)
		}
	}
	for _, name := range nonzero {
		if v, ok := views[name]; !ok || v.stat == 0 {
			t.Errorf("%s not driven by the scenario (stats %+v)", name, views[name])
		}
	}
}

// awaitQuiescent waits until every admitted job has finished, so the two
// scrapes in assertCountersAgree observe the same totals.
func awaitQuiescent(t *testing.T, e *Engine) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st := e.Stats()
		if st.Submitted == st.Completed+st.Failed+st.Cancelled {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("engine never went quiescent: %+v", e.Stats())
}

// TestStatsCountersMatchMetrics drives every event the /v1/stats counters
// count — a miss, a hit, a coalesce, a queue-full rejection, a
// cancellation, a failure and a recovered panic on one engine, an admission
// shed on a second — and checks each counter against its /metrics series.
func TestStatsCountersMatchMetrics(t *testing.T) {
	started, release := make(chan struct{}, 8), make(chan struct{})
	stub := func(ctx context.Context, _ compiler.Backend, _ compiler.Target, circ *circuit.Circuit, opts compiler.Options) (*compiler.Result, error) {
		switch {
		case opts.Seed == 2:
			return nil, errors.New("stub failure")
		case opts.Seed == 3:
			panic("stub panic")
		case opts.Seed >= 10:
			started <- struct{}{}
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		res := stubResult(circ)
		res.Metrics.Passes = []metrics.PassTiming{{Name: "route", Seconds: 0.25}, {Name: "map-atoms", Seconds: 0.125}}
		return res, nil
	}

	t.Run("cache-queue-failures", func(t *testing.T) {
		e := newEngine(Config{Workers: 2, QueueSize: 1}, stub)
		srv := httptest.NewServer(e.Handler())
		defer e.Close()
		defer srv.Close()
		ctx := context.Background()
		for _, seed := range []int64{1, 1, 2, 3} { // miss, hit, failure, panic
			if _, err := e.Compile(ctx, Request{Benchmark: "H2-4", Seed: seed}); err != nil {
				t.Fatal(err)
			}
		}
		// Coalesce: both workers run seed 10, the second waiting on the
		// first's in-flight cache entry.
		for i := 0; i < 2; i++ {
			if _, err := e.Submit(ctx, Request{Benchmark: "H2-4", Seed: 10}); err != nil {
				t.Fatal(err)
			}
		}
		<-started
		for deadline := time.Now().Add(5 * time.Second); counterTotal(e.tel.cacheEvents, cacheCoalesce) == 0; {
			if time.Now().After(deadline) {
				t.Fatal("second seed-10 job never coalesced")
			}
			time.Sleep(time.Millisecond)
		}
		// Both workers are busy: one job fills the queue, the next is
		// rejected, and the queued one is cancelled.
		queued, err := e.Submit(ctx, Request{Benchmark: "H2-4", Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Submit(ctx, Request{Benchmark: "H2-4", Seed: 12}); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("err = %v, want queue full", err)
		}
		if _, err := e.Cancel(queued.ID); err != nil {
			t.Fatal(err)
		}
		close(release)
		awaitQuiescent(t, e)
		if got := counterTotal(e.tel.cacheEvents, cacheCoalesce); got != 1 {
			t.Errorf("coalesce events = %v, want 1", got)
		}
		assertCountersAgree(t, srv.URL, "submitted", "completed", "failed", "cancelled", "rejected",
			"panics", "cacheHits", "cacheMisses", "cacheEntries", "passSeconds.route", "passSeconds.map-atoms")
	})

	t.Run("admission-shed", func(t *testing.T) {
		backend := newBlockingBackend()
		e := newEngine(Config{Workers: 1, WorkersMin: 1, WorkersMax: 1, QueueSize: 64,
			Admission: admission.Config{Enabled: true, Interval: 2 * time.Millisecond,
				TargetQueueWait: 5 * time.Millisecond, DefaultServiceSeconds: 0.5}}, backend.compile)
		srv := httptest.NewServer(e.Handler())
		defer e.Close()
		defer srv.Close()
		ctx := context.Background()
		batch := func(seed int64) error {
			_, err := e.Submit(ctx, Request{Benchmark: "H2-4", Seed: seed, Priority: PriorityBatch})
			return err
		}
		if err := batch(1); err != nil {
			t.Fatal(err)
		}
		<-backend.started
		for seed := int64(2); seed < 6; seed++ {
			batch(seed) //nolint:errcheck // may shed once the backlog registers
		}
		shed := false
		for deadline := time.Now().Add(5 * time.Second); !shed && time.Now().Before(deadline); {
			err := batch(time.Now().UnixNano())
			shed = errors.Is(err, ErrOverloaded) && !errors.Is(err, ErrQueueFull)
			time.Sleep(2 * time.Millisecond)
		}
		if !shed {
			t.Fatal("controller never shed batch traffic")
		}
		close(backend.release)
		// Every backlog job announces itself on the bounded started channel
		// before returning; keep it drained until the engine is quiescent.
		drained := make(chan struct{})
		defer close(drained)
		go func() {
			for {
				select {
				case <-backend.started:
				case <-drained:
					return
				}
			}
		}()
		awaitQuiescent(t, e)
		assertCountersAgree(t, srv.URL, "submitted", "completed", "rejected", "shedBatchTotal")
	})
}
