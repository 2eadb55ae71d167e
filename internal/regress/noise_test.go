package regress

import (
	"context"
	"math"
	"testing"

	"atomique/internal/bench"
	"atomique/internal/compiler"
	"atomique/internal/noise"

	_ "atomique/internal/compiler/backends" // register the built-in backends
)

// noiseValidationShots sizes the per-(backend, circuit) trajectory runs: at
// corpus fidelities (>= ~0.9) the 4-sigma binomial band is ~2% of a unit,
// tight enough to catch a miscounted channel while keeping the suite fast.
const noiseValidationShots = 3000

// TestNoiseValidationRegressCorpus is the end-to-end empirical validation of
// the analytic fidelity pipeline: every registered backend compiles the
// regression corpus (the QASM testdata plus two small generated benchmarks —
// the wide generated entries exceed the dense simulator), its execution
// witness is replayed through the Monte-Carlo trajectory engine, and the
// stated tolerance is asserted:
//
//   - the noise model's closed form reproduces the backend's reported
//     analytic fidelity to float precision (for backends with a fidelity
//     model), proving the channel derivation covers every factor;
//   - trajectory survival agrees with the analytic fidelity within 4 sigma
//     of the binomial sampling error — the Monte-Carlo estimator is
//     unbiased for the analytic product;
//   - the mean trajectory overlap is never below survival (errors can be
//     invisible, never negative), with the gap bounding the analytic
//     model's pessimism.
//
// Clifford entries at paper-scale widths (64-256 qubits) ride the same
// battery through the stabilizer engine — far beyond the dense wall — and
// additionally assert the automatic dispatch picked it.
func TestNoiseValidationRegressCorpus(t *testing.T) {
	backends := compiler.List()
	if len(backends) < 6 {
		t.Fatalf("registry has %d backends, want at least the 6 built-ins", len(backends))
	}
	entries := corpus(t)
	small := []corpusEntry{
		{name: "gen-ghz-6", circ: bench.GHZ(6)},
		{name: "gen-qaoa-regu3-8", circ: bench.QAOARegular(8, 3, 15)},
	}
	for _, e := range entries {
		if e.circ.N <= 8 {
			small = append(small, e)
		}
	}
	wide := []corpusEntry{
		{name: "gen-ghz-64", circ: bench.GHZ(64)},
		{name: "gen-bv-64", circ: bench.BV(64, 16, goldenSeed)},
		{name: "gen-teleport-65", circ: bench.TeleportChain(65)},
		{name: "gen-ghz-256", circ: bench.GHZ(256)},
	}
	validate := func(t *testing.T, b compiler.Backend, e corpusEntry, wantEngine string) {
		t.Helper()
		res, err := b.Compile(context.Background(), compiler.Target{}, e.circ, compiler.Options{Seed: goldenSeed})
		if err != nil {
			t.Fatalf("%s: compile: %v", e.name, err)
		}
		est, _, err := compiler.RunShots(context.Background(), compiler.Target{}, res,
			compiler.ShotRun{NoisyShots: noiseValidationShots, NoiseSeed: 13}, nil)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		if est == nil {
			t.Fatalf("%s: no noise estimate attached", e.name)
		}
		if wantEngine != "" && est.Engine != wantEngine {
			t.Errorf("%s: trajectory engine %q, want %q", e.name, est.Engine, wantEngine)
		}

		if analytic := res.Metrics.FidelityTotal(); analytic > 0 {
			if d := math.Abs(est.Analytic-analytic) / analytic; d > 1e-9 {
				t.Errorf("%s: model closed form %v != reported analytic fidelity %v (rel diff %v)",
					e.name, est.Analytic, analytic, d)
			}
		}

		tol := 4*est.SurvivalSigma() + 1e-9
		if d := math.Abs(est.Survival - est.Analytic); d > tol {
			t.Errorf("%s: trajectory survival %v vs analytic %v: |diff| %v exceeds the 4-sigma tolerance %v",
				e.name, est.Survival, est.Analytic, d, tol)
		}

		if est.Fidelity < est.Survival-1e-12 {
			t.Errorf("%s: mean overlap %v below survival %v — errored trajectories scored impossibly low",
				e.name, est.Fidelity, est.Survival)
		}
		if est.CILow > est.Fidelity || est.CIHigh < est.Fidelity {
			t.Errorf("%s: CI [%v, %v] does not bracket the mean %v",
				e.name, est.CILow, est.CIHigh, est.Fidelity)
		}
	}
	for _, b := range backends {
		b := b
		t.Run(b.Name(), func(t *testing.T) {
			t.Parallel()
			for _, e := range small {
				validate(t, b, e, "")
			}
			for _, e := range wide {
				validate(t, b, e, noise.EngineStab)
			}
		})
	}
}
