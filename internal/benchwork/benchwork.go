// Package benchwork is the one list of tracked performance workloads. Both
// `go test -bench` (BenchmarkTracked) and the BENCH_*.json recorder
// (`experiments -bench-record`) run exactly these bodies, so a workload, its
// inputs and its checks are defined once.
//
// The list is flat: testing.Benchmark, which the recorder calls from a plain
// main, drops b.Run sub-results, so every workload is a leaf.
package benchwork

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"atomique/internal/bench"
	"atomique/internal/compiler"
	_ "atomique/internal/compiler/backends" // register the built-in backends
	"atomique/internal/core"
	"atomique/internal/hardware"
	"atomique/internal/noise"
)

// Workload is one tracked benchmark body.
type Workload struct {
	Name string
	Run  func(*testing.B)
}

// shots is the trajectory or sample count of one op of every shot workload.
const shots = 16384

// All returns the tracked workloads in record order:
//   - tab2-compile: the full Table II suite through the atomique pass
//     pipeline (Seed 1) — the headline compile-speed number and the
//     recorder's 2% gate;
//   - backend/<name>: QAOA-regu5-40 on each registered backend (auto target,
//     Seed 7);
//   - noisy-shots/workers-N: trajectories of the compiled 12-qubit QAOA
//     witness at N = 1, 2, 4, ... up to GOMAXPROCS;
//   - stab-trajectory/ghz-128: Pauli-frame trajectories at a width the dense
//     engine cannot touch;
//   - sample/...: measurement sampling (the /v1/sample hot path) on the
//     dense CDF sampler and the stabilizer affine-subspace sampler.
func All() []Workload {
	ws := []Workload{{Name: "tab2-compile", Run: tab2Compile}}
	for _, be := range compiler.List() {
		ws = append(ws, Workload{Name: "backend/" + be.Name(), Run: backendCompile(be)})
	}
	maxWorkers := runtime.GOMAXPROCS(0)
	for workers := 1; ; workers *= 2 {
		workers = min(workers, maxWorkers)
		ws = append(ws, Workload{
			Name: fmt.Sprintf("noisy-shots/workers-%d", workers),
			Run:  shotLoop(qaoaWitness, noise.EngineDense, simulate(workers)),
		})
		if workers == maxWorkers {
			break
		}
	}
	return append(ws,
		Workload{Name: "stab-trajectory/ghz-128", Run: shotLoop(ghzWitness(128), noise.EngineStab, simulate(0))},
		Workload{Name: "sample/dense-qaoa-12", Run: shotLoop(qaoaWitness, noise.EngineDense, sample)},
		Workload{Name: "sample/stab-ghz-64", Run: shotLoop(ghzWitness(64), noise.EngineStab, sample)},
		Workload{Name: "sample/stab-ghz-128", Run: shotLoop(ghzWitness(128), noise.EngineStab, sample)},
	)
}

func tab2Compile(b *testing.B) {
	cfg := hardware.DefaultConfig()
	suite := bench.Table2Suite()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bm := range suite {
			if _, err := core.Compile(cfg, bm.Circ, core.Options{Seed: 1}); err != nil {
				b.Fatalf("%s: %v", bm.Name, err)
			}
		}
	}
}

func backendCompile(be compiler.Backend) func(*testing.B) {
	return func(b *testing.B) {
		c := bench.QAOARegular(40, 5, 15)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := be.Compile(context.Background(), compiler.Target{}, c, compiler.Options{Seed: 7}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// shotRunner runs one op's shots and returns the engine it dispatched to.
type shotRunner func(noise.Model, noise.Witness) (string, error)

func simulate(workers int) shotRunner {
	return func(mo noise.Model, w noise.Witness) (string, error) {
		est, err := noise.Simulate(context.Background(), mo, w, noise.Run{Shots: shots, Seed: 1, Workers: workers})
		if err != nil {
			return "", err
		}
		return est.Engine, nil
	}
}

func sample(mo noise.Model, w noise.Witness) (string, error) {
	sr, err := noise.Sample(context.Background(), mo, w, noise.SampleRun{Shots: shots, Seed: 1})
	if err != nil {
		return "", err
	}
	return sr.Engine, nil
}

// shotLoop is the body of every shot workload: build the witness, reject a
// degenerate model, then run one shot run per op, asserting the engine it
// dispatched to. It reports shots/s.
func shotLoop(witness func(*testing.B) (noise.Model, noise.Witness), engine string, run shotRunner) func(*testing.B) {
	return func(b *testing.B) {
		mo, w := witness(b)
		if mo.Analytic() <= 0 {
			b.Fatal("degenerate model")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			got, err := run(mo, w)
			if err != nil {
				b.Fatal(err)
			}
			if got != engine {
				b.Fatalf("engine %q, want %s", got, engine)
			}
		}
		b.ReportMetric(float64(shots*b.N)/b.Elapsed().Seconds(), "shots/s")
	}
}

// qaoaWitness compiles a 12-qubit QAOA circuit with the atomique backend: a
// non-Clifford witness for the dense engine, under its derived noise model.
func qaoaWitness(b *testing.B) (noise.Model, noise.Witness) {
	be, ok := compiler.Lookup("atomique")
	if !ok {
		b.Fatal("atomique backend not registered")
	}
	res, err := be.Compile(context.Background(), compiler.Target{}, bench.QAOARegular(12, 3, 15), compiler.Options{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	return noise.Build(hardware.NeutralAtom(), res.Metrics), noise.Witness{NSlots: res.Program.NSlots, Gates: res.Program.Gates}
}

// ghzWitness is an n-qubit GHZ chain — Clifford, so the stabilizer engine
// takes it — under a model mirroring the neutral-atom channel mix.
func ghzWitness(n int) func(*testing.B) (noise.Model, noise.Witness) {
	return func(*testing.B) (noise.Model, noise.Witness) {
		return noise.Model{Channels: []noise.Channel{
			{Label: "1q-gate", Kind: noise.Pauli1Q, Trials: 1, Prob: 2e-3},
			{Label: "2q-gate", Kind: noise.Pauli2Q, Trials: n - 1, Prob: 5e-3},
			{Label: "decoherence", Kind: noise.Dephase, Trials: n, Prob: 1e-3},
			{Label: "transfer", Kind: noise.Loss, Trials: n, Prob: 2e-4},
		}}, noise.Witness{NSlots: n, Gates: bench.GHZ(n).Gates}
	}
}
