package service

import (
	"context"
	"encoding/json"
	"runtime"
	"testing"
)

// TestFinishedJobKeepsOnlySnapshot: a finished job keeps what its snapshot
// renders — ID, state, times, metrics, error and the traced envelope — and
// drops its context, cancel func, span tree and emit callback. Up to
// maxTrackedJobs finished jobs stay registered, so anything more each one
// pins grows the heap with throughput.
func TestFinishedJobKeepsOnlySnapshot(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	jv, err := e.Compile(context.Background(), Request{Benchmark: "H2-4", Seed: 1, Shots: 512, NoiseSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	j := e.jobs[jv.ID]
	e.mu.Unlock()
	j.mu.Lock()
	if j.ctx != nil || j.cancel != nil || j.trace != nil {
		t.Errorf("finished job holds ctx=%v cancel=%v trace=%v, want none", j.ctx != nil, j.cancel != nil, j.trace != nil)
	}
	if j.task.emit != nil {
		t.Error("finished job still holds its emit callback")
	}
	j.mu.Unlock()

	// The snapshot still renders the job's trace into its result.
	again, ok := e.JobByID(jv.ID)
	if !ok {
		t.Fatal("finished job not found")
	}
	var env struct {
		TraceID string          `json:"traceId"`
		Trace   json.RawMessage `json:"trace"`
		Noise   json.RawMessage `json:"noise"`
	}
	if err := json.Unmarshal(again.Result, &env); err != nil {
		t.Fatal(err)
	}
	if env.TraceID != jv.TraceID || len(env.Trace) == 0 || len(env.Noise) == 0 {
		t.Errorf("snapshot envelope traceId=%q (job %q), %d trace bytes, %d noise bytes", env.TraceID, jv.TraceID, len(env.Trace), len(env.Noise))
	}
	if string(again.Result) != string(jv.Result) {
		t.Error("a later snapshot renders a different result than the first")
	}
}

// TestFinishedJobRetainedHeap bounds the heap each finished simulate job
// keeps alive: its traced envelope (the job's 32-chunk span tree rendered
// as JSON) and its bookkeeping, not its live span tree and context. The
// cache and the trace ring are one entry each, so only the job history
// grows.
func TestFinishedJobRetainedHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 150 simulate jobs")
	}
	e := New(Config{Workers: 1, CacheSize: 1, TraceBuffer: 1})
	defer e.Close()
	run := func(seed int64) {
		if _, err := e.Compile(context.Background(), Request{Benchmark: "H2-4", Seed: 1, Shots: 8192, NoiseSeed: seed}); err != nil {
			t.Fatal(err)
		}
	}
	run(1) // warm the compile and the pools
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	const jobs = 150
	before := heap()
	for i := 0; i < jobs; i++ {
		run(int64(i + 2))
	}
	after := heap()
	perJob := (float64(after) - float64(before)) / jobs
	t.Logf("retained heap: %.1f KB per finished job", perJob/1024)
	if perJob > 16<<10 {
		t.Errorf("each finished job retains %.1f KB, want at most 16 KB", perJob/1024)
	}
}
