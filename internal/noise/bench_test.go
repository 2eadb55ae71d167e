package noise_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"atomique/internal/bench"
	"atomique/internal/compiler"
	"atomique/internal/hardware"
	"atomique/internal/noise"

	_ "atomique/internal/compiler/backends" // register the built-in backends
)

// BenchmarkNoisyShots measures trajectory throughput over a compiled
// witness at increasing worker counts — the shot loop is embarrassingly
// parallel, so shots/s should scale with GOMAXPROCS until memory bandwidth
// saturates. CI runs it as a smoke test (-benchtime=1x).
func BenchmarkNoisyShots(b *testing.B) {
	model, w := qaoaWitness(b)
	const shots = 16384
	maxWorkers := runtime.GOMAXPROCS(0)
	for workers := 1; ; workers *= 2 {
		if workers > maxWorkers {
			workers = maxWorkers
		}
		workers := workers
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				est, err := noise.Simulate(context.Background(), model, w,
					noise.Run{Shots: shots, Seed: int64(i), Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if est.Analytic <= 0 {
					b.Fatal("degenerate model")
				}
			}
			b.ReportMetric(float64(shots*b.N)/b.Elapsed().Seconds(), "shots/s")
		})
		if workers == maxWorkers {
			break
		}
	}
}

// BenchmarkStabTrajectory measures Pauli-frame trajectory throughput on the
// stabilizer engine at a width (128 qubits) the dense engine cannot touch.
// A GHZ chain keeps the witness Clifford while exercising the full frame
// conjugation sweep; the model mirrors the neutral-atom channel mix. CI runs
// it as a smoke test (-benchtime=1x).
func BenchmarkStabTrajectory(b *testing.B) {
	model, w := ghzWitness()
	const shots = 16384
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		est, err := noise.Simulate(context.Background(), model, w,
			noise.Run{Shots: shots, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if est.Engine != noise.EngineStab {
			b.Fatalf("engine %q, want stab", est.Engine)
		}
	}
	b.ReportMetric(float64(shots*b.N)/b.Elapsed().Seconds(), "shots/s")
}

// BenchmarkSample measures measurement-sampling throughput (the /v1/sample
// hot path) on both engines: the dense CDF sampler over a 12-qubit QAOA
// witness and the stabilizer affine-subspace sampler over a 128-qubit GHZ
// witness. CI runs it as a smoke test (-benchtime=1x); BENCH_NNNN.json
// records the same workloads via cmd/experiments -bench-record.
func BenchmarkSample(b *testing.B) {
	const shots = 16384
	run := func(b *testing.B, model noise.Model, w noise.Witness, engine string) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sr, err := noise.Sample(context.Background(), model, w,
				noise.SampleRun{Shots: shots, Seed: int64(i)})
			if err != nil {
				b.Fatal(err)
			}
			if sr.Engine != engine {
				b.Fatalf("engine %q, want %s", sr.Engine, engine)
			}
		}
		b.ReportMetric(float64(shots*b.N)/b.Elapsed().Seconds(), "shots/s")
	}

	b.Run("dense-qaoa-12", func(b *testing.B) {
		model, w := qaoaWitness(b)
		run(b, model, w, noise.EngineDense)
	})

	b.Run("stab-ghz-128", func(b *testing.B) {
		model, w := ghzWitness()
		run(b, model, w, noise.EngineStab)
	})
}

// qaoaWitness compiles a 12-qubit QAOA circuit with the atomique backend:
// a non-Clifford witness for the dense engine, under its derived noise model.
func qaoaWitness(b *testing.B) (noise.Model, noise.Witness) {
	be, ok := compiler.Lookup("atomique")
	if !ok {
		b.Fatal("atomique backend not registered")
	}
	circ := bench.QAOARegular(12, 3, 15)
	res, err := be.Compile(context.Background(), compiler.Target{}, circ, compiler.Options{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	return noise.Build(hardware.NeutralAtom(), res.Metrics), noise.Witness{NSlots: res.Program.NSlots, Gates: res.Program.Gates}
}

// ghzWitness is a 128-qubit GHZ chain — Clifford, and beyond the dense
// engine — under a model mirroring the neutral-atom channel mix.
func ghzWitness() (noise.Model, noise.Witness) {
	const n = 128
	return noise.Model{Channels: []noise.Channel{
		{Label: "1q-gate", Kind: noise.Pauli1Q, Trials: 1, Prob: 2e-3},
		{Label: "2q-gate", Kind: noise.Pauli2Q, Trials: n - 1, Prob: 5e-3},
		{Label: "decoherence", Kind: noise.Dephase, Trials: n, Prob: 1e-3},
		{Label: "transfer", Kind: noise.Loss, Trials: n, Prob: 2e-4},
	}}, noise.Witness{NSlots: n, Gates: bench.GHZ(n).Gates}
}
