package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"atomique/internal/bench"
	"atomique/internal/compiler"
	"atomique/internal/core"
	"atomique/internal/hardware"
	"atomique/internal/noise"
)

// benchRecord is the committed perf-trajectory record (BENCH_NNNN.json): the
// same workloads the repo's Go benchmarks run (BenchmarkTab2Compile,
// BenchmarkBackends, BenchmarkNoisyShots, BenchmarkStabTrajectory,
// BenchmarkSample), measured directly so the numbers can be serialized with
// machine context and compared across PRs.
type benchRecord struct {
	RecordedAt string `json:"recordedAt"`
	GoVersion  string `json:"goVersion"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUs       int    `json:"cpus"`

	// Tab2CompileSeconds is one compile of the full Table II suite through
	// the atomique pass pipeline (Seed 1), best of Runs — the workload of
	// BenchmarkTab2Compile and the ≤2% instrumentation-overhead gate.
	Tab2CompileSeconds float64 `json:"tab2CompileSeconds"`
	// Tab2BaselineSeconds is the pre-change number the run is compared
	// against (passed via -bench-baseline; 0 = none recorded).
	Tab2BaselineSeconds float64 `json:"tab2BaselineSeconds,omitempty"`
	// Tab2OverheadPct is (current - baseline) / baseline * 100.
	Tab2OverheadPct float64 `json:"tab2OverheadPct,omitempty"`
	Runs            int     `json:"runs"`

	// BackendCompileSeconds is one QAOA-regu5-40 compile per registered
	// backend (auto target, Seed 7, best of Runs) — BenchmarkBackends.
	BackendCompileSeconds map[string]float64 `json:"backendCompileSeconds"`

	// NoisyShotsPerSecond is trajectory throughput (16384 shots of
	// QAOA-regu3-12) per worker count — BenchmarkNoisyShots.
	NoisyShotsPerSecond map[string]float64 `json:"noisyShotsPerSecond"`

	// StabShotsPerSecond is Pauli-frame trajectory throughput on the
	// stabilizer engine (16384 shots of a 128-qubit GHZ witness, default
	// workers) — BenchmarkStabTrajectory. The dense engine cannot run this
	// workload at all.
	StabShotsPerSecond float64 `json:"stabShotsPerSecond,omitempty"`

	// SampleShotsPerSecond is measurement-sampling throughput (noise.Sample,
	// default workers) per workload: the dense engine on the 12-qubit QAOA
	// witness and the stabilizer affine-subspace sampler on 64- and
	// 128-qubit GHZ witnesses.
	SampleShotsPerSecond map[string]float64 `json:"sampleShotsPerSecond,omitempty"`
	// SampleStabVsDenseSpeedup is stab GHZ-64 sampled-shot throughput over
	// the dense workload's — the Clifford fast path's win on the sampling
	// product specifically.
	SampleStabVsDenseSpeedup float64 `json:"sampleStabVsDenseSpeedup,omitempty"`
}

// resolveBaseline turns the -bench-baseline flag into Tab2 seconds/op. The
// flag accepts three forms: a bare number (back-compat), a path to one
// committed BENCH_*.json record, or a directory of them — the
// lexically-latest record wins, so pointing CI at the repo root always diffs
// against the most recent committed trajectory point. Returns the seconds,
// the source description ("" for the literal-number form), and any error;
// an empty flag resolves to no baseline.
func resolveBaseline(arg string) (float64, string, error) {
	if arg == "" {
		return 0, "", nil
	}
	if sec, err := strconv.ParseFloat(arg, 64); err == nil {
		if sec < 0 {
			return 0, "", fmt.Errorf("negative baseline %v", sec)
		}
		return sec, "", nil
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
	if rec.Tab2CompileSeconds <= 0 {
		return 0, "", fmt.Errorf("%s: no tab2CompileSeconds recorded", path)
	}
	return rec.Tab2CompileSeconds, path, nil
}

// bestOf returns the minimum wall time of n runs of fn — the same
// least-noise estimator `go test -bench` users apply across -count runs.
func bestOf(n int, fn func() error) (float64, error) {
	best := 0.0
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if sec := time.Since(start).Seconds(); i == 0 || sec < best {
			best = sec
		}
	}
	return best, nil
}

// runBenchRecord measures the five tracked workloads and writes the JSON
// record to path. baseline (seconds, 0 = none) is the pre-change Tab2 number
// to diff against; the run fails loudly if overhead exceeds 2%.
func runBenchRecord(path string, baseline float64) error {
	const runs = 5
	rec := benchRecord{
		RecordedAt:            time.Now().UTC().Format(time.RFC3339),
		GoVersion:             runtime.Version(),
		GOOS:                  runtime.GOOS,
		GOARCH:                runtime.GOARCH,
		CPUs:                  runtime.GOMAXPROCS(0),
		Runs:                  runs,
		BackendCompileSeconds: make(map[string]float64),
		NoisyShotsPerSecond:   make(map[string]float64),
	}

	// BenchmarkTab2Compile: the full Table II suite, Seed 1.
	cfg := hardware.DefaultConfig()
	suite := bench.Table2Suite()
	sec, err := bestOf(runs, func() error {
		for _, bm := range suite {
			if _, err := core.Compile(cfg, bm.Circ, core.Options{Seed: 1}); err != nil {
				return fmt.Errorf("%s: %w", bm.Name, err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	rec.Tab2CompileSeconds = sec
	if baseline > 0 {
		rec.Tab2BaselineSeconds = baseline
		rec.Tab2OverheadPct = (sec - baseline) / baseline * 100
	}
	fmt.Printf("tab2 suite: %.4fs/op (best of %d)", sec, runs)
	if baseline > 0 {
		fmt.Printf("  baseline %.4fs  overhead %+.2f%%", baseline, rec.Tab2OverheadPct)
	}
	fmt.Println()

	// BenchmarkBackends: QAOA-regu5-40 per registered backend, Seed 7.
	qaoa := bench.QAOARegular(40, 5, 15)
	for _, be := range compiler.List() {
		be := be
		sec, err := bestOf(3, func() error {
			_, err := be.Compile(context.Background(), compiler.Target{}, qaoa, compiler.Options{Seed: 7})
			return err
		})
		if err != nil {
			return fmt.Errorf("backend %s: %w", be.Name(), err)
		}
		rec.BackendCompileSeconds[be.Name()] = sec
		fmt.Printf("backend %-10s %.4fs/op\n", be.Name(), sec)
	}

	// BenchmarkNoisyShots: 16384 trajectories of QAOA-regu3-12 per worker
	// count (1, 2, 4, ... up to GOMAXPROCS).
	be, ok := compiler.Lookup("atomique")
	if !ok {
		return fmt.Errorf("atomique backend not registered")
	}
	circ := bench.QAOARegular(12, 3, 15)
	res, err := be.Compile(context.Background(), compiler.Target{}, circ, compiler.Options{Seed: 7})
	if err != nil {
		return err
	}
	model := noise.Build(hardware.NeutralAtom(), res.Metrics)
	w := noise.Witness{NSlots: res.Program.NSlots, Gates: res.Program.Gates}
	const shots = 16384
	maxWorkers := runtime.GOMAXPROCS(0)
	for workers := 1; ; workers *= 2 {
		if workers > maxWorkers {
			workers = maxWorkers
		}
		sec, err := bestOf(3, func() error {
			_, err := noise.Simulate(context.Background(), model, w,
				noise.Run{Shots: shots, Seed: 1, Workers: workers})
			return err
		})
		if err != nil {
			return err
		}
		key := fmt.Sprintf("workers-%d", workers)
		rec.NoisyShotsPerSecond[key] = float64(shots) / sec
		fmt.Printf("noisy %-11s %.0f shots/s\n", key, rec.NoisyShotsPerSecond[key])
		if workers == maxWorkers {
			break
		}
	}

	// BenchmarkStabTrajectory: 16384 Pauli-frame trajectories of a
	// 128-qubit GHZ witness through the stabilizer engine.
	const stabWidth = 128
	ghz := bench.GHZ(stabWidth)
	stabW := noise.Witness{NSlots: stabWidth, Gates: ghz.Gates}
	stabModel := noise.Model{Channels: []noise.Channel{
		{Label: "1q-gate", Kind: noise.Pauli1Q, Trials: 1, Prob: 2e-3},
		{Label: "2q-gate", Kind: noise.Pauli2Q, Trials: stabWidth - 1, Prob: 5e-3},
		{Label: "decoherence", Kind: noise.Dephase, Trials: stabWidth, Prob: 1e-3},
		{Label: "transfer", Kind: noise.Loss, Trials: stabWidth, Prob: 2e-4},
	}}
	sec, err = bestOf(3, func() error {
		est, err := noise.Simulate(context.Background(), stabModel, stabW,
			noise.Run{Shots: shots, Seed: 1})
		if err != nil {
			return err
		}
		if est.Engine != noise.EngineStab {
			return fmt.Errorf("stab workload dispatched to engine %q", est.Engine)
		}
		return nil
	})
	if err != nil {
		return err
	}
	rec.StabShotsPerSecond = float64(shots) / sec
	fmt.Printf("stab ghz-%d    %.0f shots/s\n", stabWidth, rec.StabShotsPerSecond)

	// Measurement-sampling throughput (the /v1/sample hot path): the dense
	// CDF sampler on the 12-qubit QAOA witness vs the stabilizer
	// affine-subspace sampler on GHZ witnesses far past the dense wall.
	rec.SampleShotsPerSecond = make(map[string]float64)
	sampleRate := func(label string, mo noise.Model, sw noise.Witness) (float64, error) {
		sec, err := bestOf(3, func() error {
			_, err := noise.Sample(context.Background(), mo, sw,
				noise.SampleRun{Shots: shots, Seed: 1})
			return err
		})
		if err != nil {
			return 0, fmt.Errorf("sample %s: %w", label, err)
		}
		rate := float64(shots) / sec
		rec.SampleShotsPerSecond[label] = rate
		fmt.Printf("sample %-12s %.0f shots/s\n", label, rate)
		return rate, nil
	}
	denseRate, err := sampleRate("dense-qaoa-12", model, w)
	if err != nil {
		return err
	}
	var stab64Rate float64
	for _, n := range []int{64, 128} {
		g := bench.GHZ(n)
		mo := noise.Model{Channels: []noise.Channel{
			{Label: "1q-gate", Kind: noise.Pauli1Q, Trials: 1, Prob: 2e-3},
			{Label: "2q-gate", Kind: noise.Pauli2Q, Trials: n - 1, Prob: 5e-3},
			{Label: "decoherence", Kind: noise.Dephase, Trials: n, Prob: 1e-3},
			{Label: "transfer", Kind: noise.Loss, Trials: n, Prob: 2e-4},
		}}
		rate, err := sampleRate(fmt.Sprintf("stab-ghz-%d", n), mo, noise.Witness{NSlots: n, Gates: g.Gates})
		if err != nil {
			return err
		}
		if n == 64 {
			stab64Rate = rate
		}
	}
	rec.SampleStabVsDenseSpeedup = stab64Rate / denseRate
	fmt.Printf("sample stab-ghz-64 vs dense: %.1fx\n", rec.SampleStabVsDenseSpeedup)

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
