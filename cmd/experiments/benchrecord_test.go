package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"atomique/internal/benchwork"
)

func writeRecord(t *testing.T, dir, name, body string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestResolveBaseline(t *testing.T) {
	dir := t.TempDir()
	writeRecord(t, dir, "BENCH_0009.json", `{"tab2CompileSeconds": 0.05}`)
	writeRecord(t, dir, "BENCH_0010.json", `{"tab2CompileSeconds": 0.04}`)

	sec, src, err := resolveBaseline(dir)
	if err != nil || sec != 0.04 || filepath.Base(src) != "BENCH_0010.json" {
		t.Fatalf("directory: got %v from %q (%v), want 0.04 from BENCH_0010.json", sec, src, err)
	}
	if sec, _, err := resolveBaseline(filepath.Join(dir, "BENCH_0009.json")); err != nil || sec != 0.05 {
		t.Fatalf("file: got %v (%v), want 0.05", sec, err)
	}
	if sec, src, err := resolveBaseline(""); err != nil || sec != 0 || src != "" {
		t.Fatalf("empty flag: got %v from %q (%v), want no baseline", sec, src, err)
	}

	empty := t.TempDir()
	noTab2 := t.TempDir()
	writeRecord(t, noTab2, "BENCH_0001.json", `{"runs": 5}`)
	negative := t.TempDir()
	writeRecord(t, negative, "BENCH_0001.json", `{"tab2CompileSeconds": -1}`)
	overflow := t.TempDir()
	writeRecord(t, overflow, "BENCH_0001.json", `{"tab2CompileSeconds": 1e999}`)
	for name, arg := range map[string]string{
		"empty dir":     empty,
		"no tab2":       noTab2,
		"negative tab2": negative,
		"infinite tab2": overflow,
		"NaN":           "NaN",
		"Inf":           "Inf",
		"bare number":   "0.04",
	} {
		if sec, _, err := resolveBaseline(arg); err == nil {
			t.Errorf("%s: resolved to %v, want an error", name, sec)
		}
	}
}

func TestMeasureRecordFollowsRegistry(t *testing.T) {
	ws := benchwork.All()
	var calls []string
	measure := func(w benchwork.Workload) testing.BenchmarkResult {
		calls = append(calls, w.Name)
		// The second of each workload's two runs is the faster one.
		ms := 20 + 10*(len(calls)%2)
		return testing.BenchmarkResult{
			N: 10, T: time.Duration(10*ms) * time.Millisecond,
			MemAllocs: 70, MemBytes: 700,
			Extra: map[string]float64{"shots/s": float64(len(calls))},
		}
	}
	rec, err := measureRecord(ws, 2, measure)
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 2*len(ws) {
		t.Fatalf("%d measure calls, want %d", len(calls), 2*len(ws))
	}
	if len(rec.Workloads) != len(ws) {
		t.Fatalf("%d workload entries, want %d", len(rec.Workloads), len(ws))
	}
	for i, w := range ws {
		if calls[2*i] != w.Name || calls[2*i+1] != w.Name {
			t.Fatalf("measure calls %d-%d are %v, want %s twice (registry order)", 2*i, 2*i+1, calls[2*i:2*i+2], w.Name)
		}
		got, ok := rec.Workloads[w.Name]
		if !ok {
			t.Fatalf("no entry for %s", w.Name)
		}
		want := workloadResult{SecondsPerOp: 0.02, AllocsPerOp: 7, BytesPerOp: 70}
		if math.Abs(got.SecondsPerOp-want.SecondsPerOp) > 1e-12 || got.AllocsPerOp != want.AllocsPerOp || got.BytesPerOp != want.BytesPerOp ||
			got.Metrics["shots/s"] != float64(2*i+2) {
			t.Errorf("%s: %+v, want %+v with the second run's metrics", w.Name, got, want)
		}
	}
	if rec.Tab2CompileSeconds != rec.Workloads["tab2-compile"].SecondsPerOp {
		t.Errorf("tab2CompileSeconds %v, want the tab2-compile entry %v", rec.Tab2CompileSeconds, rec.Workloads["tab2-compile"].SecondsPerOp)
	}
	if rec.SampleStabVsDenseSpeedup != 1 {
		t.Errorf("sampleStabVsDenseSpeedup %v, want 1 for equal timings", rec.SampleStabVsDenseSpeedup)
	}
}

func TestMeasureRecordFailedWorkload(t *testing.T) {
	ws := []benchwork.Workload{{Name: "broken"}}
	_, err := measureRecord(ws, 3, func(benchwork.Workload) testing.BenchmarkResult {
		return testing.BenchmarkResult{} // N == 0: the workload called b.Fatal
	})
	if err == nil || !strings.Contains(err.Error(), "broken") {
		t.Fatalf("err = %v, want a failure naming the workload", err)
	}
}
