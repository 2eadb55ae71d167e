package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
	"time"

	"atomique/internal/benchwork"
)

// benchRecord is the committed perf-trajectory record (BENCH_NNNN.json): the
// tracked workloads of internal/benchwork — the same bodies BenchmarkTracked
// runs — serialized with machine context so they can be compared across PRs.
type benchRecord struct {
	RecordedAt string `json:"recordedAt"`
	GoVersion  string `json:"goVersion"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUs       int    `json:"cpus"`

	// Tab2CompileSeconds is the tab2-compile workload's seconds/op — the
	// ≤2% overhead gate, kept top-level so every record since BENCH_0006
	// resolves as a baseline the same way.
	Tab2CompileSeconds float64 `json:"tab2CompileSeconds"`
	// Tab2BaselineSeconds is the pre-change number the run is compared
	// against (from -bench-baseline; 0 = none).
	Tab2BaselineSeconds float64 `json:"tab2BaselineSeconds,omitempty"`
	// Tab2OverheadPct is (current - baseline) / baseline * 100.
	Tab2OverheadPct float64 `json:"tab2OverheadPct,omitempty"`
	Runs            int     `json:"runs"`

	// Workloads holds one entry per benchwork workload, keyed by its name.
	Workloads map[string]workloadResult `json:"workloads"`
	// SampleStabVsDenseSpeedup is sample/stab-ghz-64 throughput over
	// sample/dense-qaoa-12 throughput — the Clifford fast path's win on the
	// sampling product specifically.
	SampleStabVsDenseSpeedup float64 `json:"sampleStabVsDenseSpeedup,omitempty"`
}

// workloadResult is one workload's best-of-Runs measurement.
type workloadResult struct {
	SecondsPerOp float64 `json:"secondsPerOp"`
	AllocsPerOp  int64   `json:"allocsPerOp"`
	BytesPerOp   int64   `json:"bytesPerOp"`
	// Metrics are the workload's b.ReportMetric values (e.g. shots/s).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// resolveBaseline turns the -bench-baseline flag into Tab2 seconds/op. The
// flag names one committed BENCH_*.json record or a directory of them — the
// lexically-latest record wins, so pointing CI at the repo root always diffs
// against the most recent committed trajectory point. Returns the seconds
// and the record's path; an empty flag resolves to no baseline.
func resolveBaseline(arg string) (float64, string, error) {
	if arg == "" {
		return 0, "", nil
	}
	info, err := os.Stat(arg)
	if err != nil {
		return 0, "", err
	}
	path := arg
	if info.IsDir() {
		records, err := filepath.Glob(filepath.Join(arg, "BENCH_*.json"))
		if err != nil {
			return 0, "", err
		}
		if len(records) == 0 {
			return 0, "", fmt.Errorf("no BENCH_*.json records in %s", arg)
		}
		sort.Strings(records)
		path = records[len(records)-1]
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, "", err
	}
	var rec benchRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		return 0, "", fmt.Errorf("%s: %w", path, err)
	}
	// JSON cannot carry NaN or Inf (an overflowing literal fails Unmarshal),
	// so a positive value here is finite.
	if rec.Tab2CompileSeconds <= 0 {
		return 0, "", fmt.Errorf("%s: no positive tab2CompileSeconds recorded", path)
	}
	return rec.Tab2CompileSeconds, path, nil
}

// measureRecord measures each workload runs times with measure and keeps
// the fastest run's result — the same least-noise estimator `go test -bench`
// users apply across -count runs. A run with N == 0 means the workload
// failed one of its checks.
func measureRecord(ws []benchwork.Workload, runs int, measure func(benchwork.Workload) testing.BenchmarkResult) (benchRecord, error) {
	rec := benchRecord{
		RecordedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUs:       runtime.GOMAXPROCS(0),
		Runs:       runs,
		Workloads:  make(map[string]workloadResult, len(ws)),
	}
	for _, w := range ws {
		var best workloadResult
		for i := 0; i < runs; i++ {
			r := measure(w)
			if r.N == 0 {
				return rec, fmt.Errorf("workload %s failed; go test -run='^$' -bench='Tracked/%s$' ./internal/benchwork prints why", w.Name, w.Name)
			}
			if sec := r.T.Seconds() / float64(r.N); i == 0 || sec < best.SecondsPerOp {
				best = workloadResult{SecondsPerOp: sec, AllocsPerOp: r.AllocsPerOp(), BytesPerOp: r.AllocedBytesPerOp(), Metrics: r.Extra}
			}
		}
		rec.Workloads[w.Name] = best
		fmt.Printf("%-26s %.6fs/op %9d allocs/op", w.Name, best.SecondsPerOp, best.AllocsPerOp)
		if rate, ok := best.Metrics["shots/s"]; ok {
			fmt.Printf(" %12.0f shots/s", rate)
		}
		fmt.Println()
	}
	rec.Tab2CompileSeconds = rec.Workloads["tab2-compile"].SecondsPerOp
	if stab := rec.Workloads["sample/stab-ghz-64"].SecondsPerOp; stab > 0 {
		rec.SampleStabVsDenseSpeedup = rec.Workloads["sample/dense-qaoa-12"].SecondsPerOp / stab
	}
	return rec, nil
}

// runBenchRecord measures the tracked workloads (best of 5 testing.Benchmark
// runs each) and writes the JSON record to path. baseline (seconds, 0 =
// none) is the pre-change Tab2 number to diff against; the run fails loudly
// if overhead exceeds 2%.
func runBenchRecord(path string, baseline float64) error {
	rec, err := measureRecord(benchwork.All(), 5, func(w benchwork.Workload) testing.BenchmarkResult {
		return testing.Benchmark(w.Run)
	})
	if err != nil {
		return err
	}
	fmt.Printf("sample stab-ghz-64 vs dense: %.1fx\n", rec.SampleStabVsDenseSpeedup)
	if baseline > 0 {
		rec.Tab2BaselineSeconds = baseline
		rec.Tab2OverheadPct = (rec.Tab2CompileSeconds - baseline) / baseline * 100
		fmt.Printf("tab2 suite: %.4fs/op  baseline %.4fs  overhead %+.2f%%\n",
			rec.Tab2CompileSeconds, baseline, rec.Tab2OverheadPct)
	}

	js, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(js, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	if baseline > 0 && rec.Tab2OverheadPct > 2 {
		return fmt.Errorf("tab2 compile overhead %.2f%% exceeds the 2%% budget", rec.Tab2OverheadPct)
	}
	return nil
}
