package noise

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"atomique/internal/circuit"
	"atomique/internal/hardware"
	"atomique/internal/metrics"
	"atomique/internal/stab"
)

// bellWitness is H(0); CX(0,1) — the Bell-pair preparation.
func bellWitness() Witness {
	c := circuit.New(2)
	c.H(0)
	c.CX(0, 1)
	return Witness{NSlots: 2, Gates: c.Gates}
}

// simulate is the test harness shorthand.
func simulate(t *testing.T, mo Model, w Witness, shots int, seed int64) *Estimate {
	t.Helper()
	est, err := Simulate(context.Background(), mo, w, Run{Shots: shots, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// TestDepolarizing2QBellPair checks the trajectory average of the two-qubit
// depolarizing channel against its closed form on a Bell pair: a uniform
// non-identity Pauli pair leaves |Phi+> invariant for the three stabilizers
// (XX, YY, ZZ) and maps it to an orthogonal Bell state otherwise, so
//
//	E[F] = (1-p) + p * 3/15 = 1 - 4p/5.
func TestDepolarizing2QBellPair(t *testing.T) {
	const p, shots = 0.3, 200000
	mo := Model{Channels: []Channel{{Label: "2q-gate", Kind: Pauli2Q, Trials: 1, Prob: p}}}
	est := simulate(t, mo, bellWitness(), shots, 5)

	want := 1 - 4*p/5
	if d := math.Abs(est.Fidelity - want); d > 5e-3 {
		t.Errorf("Bell-pair depolarizing fidelity = %v, want %v (analytic), diff %v", est.Fidelity, want, d)
	}
	wantSurvival := 1 - p
	if d := math.Abs(est.Survival - wantSurvival); d > 5e-3 {
		t.Errorf("survival = %v, want %v", est.Survival, wantSurvival)
	}
	if est.Analytic != wantSurvival {
		t.Errorf("Analytic() = %v, want %v", est.Analytic, wantSurvival)
	}
}

// TestDepolarizing1QGroundState checks the one-qubit channel on |0>: X and Y
// flip the state (overlap 0), Z is invisible, so E[F] = (1-p) + p/3.
func TestDepolarizing1QGroundState(t *testing.T) {
	const p, shots = 0.4, 200000
	// Identity-ish witness: a single Z keeps |0> while giving the channel a
	// gate site to attach to.
	c := circuit.New(1)
	c.Add1Q(circuit.OpZ, 0, 0)
	mo := Model{Channels: []Channel{{Label: "1q-gate", Kind: Pauli1Q, Trials: 1, Prob: p}}}
	est := simulate(t, mo, Witness{NSlots: 1, Gates: c.Gates}, shots, 9)

	want := 1 - p + p/3
	if d := math.Abs(est.Fidelity - want); d > 5e-3 {
		t.Errorf("1Q depolarizing fidelity on |0> = %v, want %v, diff %v", est.Fidelity, want, d)
	}
}

// TestLossChannel checks that loss events zero the trajectory: E[F] = 1 - p
// exactly, and every errored shot is a lost shot.
func TestLossChannel(t *testing.T) {
	const p, shots = 0.25, 100000
	mo := Model{Channels: []Channel{{Label: "transfer", Kind: Loss, Trials: 1, Prob: p}}}
	est := simulate(t, mo, bellWitness(), shots, 3)

	if d := math.Abs(est.Fidelity - (1 - p)); d > 5e-3 {
		t.Errorf("loss-channel fidelity = %v, want %v", est.Fidelity, 1-p)
	}
	if est.LostShots != est.ErrorShots {
		t.Errorf("lost %d != errored %d for a loss-only model", est.LostShots, est.ErrorShots)
	}
	if est.Survival != est.Fidelity {
		t.Errorf("survival %v != fidelity %v: lost trajectories must score exactly zero", est.Survival, est.Fidelity)
	}
}

// TestBinomialTrialCounts checks the geometric gap-skipping sampler against
// the binomial expectation over many trials per shot.
func TestBinomialTrialCounts(t *testing.T) {
	const p, trials, shots = 0.01, 500, 50000
	mo := Model{Channels: []Channel{{Label: "2q-gate", Kind: Pauli2Q, Trials: trials, Prob: p}}}
	est := simulate(t, mo, bellWitness(), shots, 17)

	wantEvents := float64(trials) * p * shots
	got := float64(est.Channels[0].Events)
	if d := math.Abs(got-wantEvents) / wantEvents; d > 0.02 {
		t.Errorf("sampled %v events, want ~%v (binomial mean), rel diff %v", got, wantEvents, d)
	}
	wantSurvival := math.Pow(1-p, trials)
	if d := math.Abs(est.Survival - wantSurvival); d > 4*est.SurvivalSigma()+1e-9 {
		t.Errorf("survival %v, want %v +- %v", est.Survival, wantSurvival, 4*est.SurvivalSigma())
	}
}

// TestShotStreamsIndependent guards the i.i.d. premise of the confidence
// intervals: consecutive shots' draw sequences must not be shifted windows
// of one splitmix sequence (the failure mode of seeding shot i at an affine
// offset, where shot i+1's k-th draw equals shot i's (k+1)-th).
func TestShotStreamsIndependent(t *testing.T) {
	for _, seed := range []int64{0, 7} {
		a, b := shotRNG(seed, 1), shotRNG(seed, 2)
		var da, db [12]uint64
		for i := range da {
			da[i], db[i] = a.next(), b.next()
		}
		shifted := 0
		for i := 0; i+1 < len(da); i++ {
			if db[i] == da[i+1] {
				shifted++
			}
		}
		if shifted > 0 {
			t.Errorf("seed %d: %d of %d adjacent-shot draws are window-shifted duplicates", seed, shifted, len(da)-1)
		}
	}
}

// TestDeterministicAcrossWorkerCounts is the cacheability contract: the
// estimate must be bit-identical whatever the parallelism.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	mo := Model{Channels: []Channel{
		{Label: "1q-gate", Kind: Pauli1Q, Trials: 40, Prob: 0.02},
		{Label: "2q-gate", Kind: Pauli2Q, Trials: 30, Prob: 0.03},
		{Label: "move-loss", Kind: Loss, Trials: 1, Prob: 0.05},
		{Label: "move-deco", Kind: Dephase, Trials: 1, Prob: 0.04},
	}}
	w := bellWitness()
	var ref *Estimate
	for _, workers := range []int{1, 2, 7} {
		est, err := Simulate(context.Background(), mo, w, Run{Shots: 5000, Seed: 21, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = est
			continue
		}
		if !reflect.DeepEqual(ref, est) {
			t.Errorf("estimate with %d workers diverges from 1-worker reference:\n%+v\nvs\n%+v", workers, est, ref)
		}
	}
}

// TestBuildReproducesAnalyticTotal: for a metrics record carrying a full
// fidelity breakdown, the derived model's closed form must reproduce
// FidelityTotal (the gate parts divide out exactly).
func TestBuildReproducesAnalyticTotal(t *testing.T) {
	p := hardware.NeutralAtom()
	bd := metrics.Compiled{NQubits: 8, N1Q: 120, N2Q: 90}
	bd.Fidelity.OneQubit = math.Pow(p.Fidelity1Q, 120) * 0.999
	bd.Fidelity.TwoQubit = math.Pow(p.Fidelity2Q, 90) * 0.998
	bd.Fidelity.Transfer = 0.97
	bd.Fidelity.MoveHeating = 0.99
	bd.Fidelity.MoveCooling = 0.995
	bd.Fidelity.MoveLoss = 0.96
	bd.Fidelity.MoveDeco = 0.985

	mo := Build(p, bd)
	want := bd.FidelityTotal()
	if got := mo.Analytic(); math.Abs(got-want)/want > 1e-9 {
		t.Errorf("Analytic() = %v, want FidelityTotal %v", got, want)
	}
}

// TestBuildWithoutBreakdown: a metrics record with no fidelity model (the
// Geyser comparator) yields gate-error channels only.
func TestBuildWithoutBreakdown(t *testing.T) {
	p := hardware.NeutralAtom()
	mo := Build(p, metrics.Compiled{NQubits: 4, N1Q: 10, N2Q: 6})
	if len(mo.Channels) != 2 {
		t.Fatalf("channels = %+v, want exactly the two gate channels", mo.Channels)
	}
	want := math.Pow(p.Fidelity1Q, 10) * math.Pow(p.Fidelity2Q, 6)
	if got := mo.Analytic(); math.Abs(got-want) > 1e-12 {
		t.Errorf("Analytic() = %v, want %v", got, want)
	}
}

// TestOverrides checks the gate-probability override and global scaling
// knobs feed through to the closed form.
func TestOverrides(t *testing.T) {
	base := Model{Channels: []Channel{
		{Label: "1q-gate", Kind: Pauli1Q, Trials: 10, Prob: 0.001},
		{Label: "2q-gate", Kind: Pauli2Q, Trials: 5, Prob: 0.002},
	}}
	over := base.WithGateProbs(0.01, 0.02)
	if over.Channels[0].Prob != 0.01 || over.Channels[1].Prob != 0.02 {
		t.Errorf("override probs = %+v", over.Channels)
	}
	if base.Channels[0].Prob != 0.001 {
		t.Error("override mutated the base model")
	}
	scaled := base.Scaled(10)
	if math.Abs(scaled.Channels[0].Prob-0.01) > 1e-15 || math.Abs(scaled.Channels[1].Prob-0.02) > 1e-15 {
		t.Errorf("scaled probs = %+v", scaled.Channels)
	}
	if got := base.Scaled(0); !reflect.DeepEqual(got, base) {
		t.Error("Scaled(0) must keep the model unchanged")
	}
}

// TestSimulateErrors covers the input contract.
func TestSimulateErrors(t *testing.T) {
	mo := Model{}
	if _, err := Simulate(context.Background(), mo, bellWitness(), Run{Shots: 0}); err == nil {
		t.Error("zero shots accepted")
	}
	// A Clifford (here: gate-free) witness beyond the dense cap dispatches
	// to the stabilizer engine instead of failing.
	if _, err := Simulate(context.Background(), mo, Witness{NSlots: MaxQubits + 1}, Run{Shots: 1}); err != nil {
		t.Errorf("Clifford witness beyond the dense cap rejected: %v", err)
	}
	// A non-Clifford witness has only the dense engine, so its cap applies.
	tGate := []circuit.Gate{{Op: circuit.OpT, Q0: 0, Q1: -1}}
	if _, err := Simulate(context.Background(), mo, Witness{NSlots: MaxQubits + 1, Gates: tGate}, Run{Shots: 1}); err == nil {
		t.Error("overwide non-Clifford witness accepted")
	}
	// Nothing handles witnesses beyond the stabilizer cap.
	if _, err := Simulate(context.Background(), mo, Witness{NSlots: MaxStabQubits + 1}, Run{Shots: 1}); err == nil {
		t.Error("witness beyond the stabilizer cap accepted")
	}
	if _, err := Simulate(context.Background(), mo, bellWitness(), Run{Shots: 1, Engine: "bogus"}); err == nil {
		t.Error("unknown engine accepted")
	}
	if _, err := Simulate(context.Background(), mo, Witness{NSlots: MaxQubits + 1, Gates: nil}, Run{Shots: 1, Engine: EngineDense}); err == nil {
		t.Error("engine=dense accepted an overwide witness")
	}
	var nce *stab.NonCliffordError
	if _, err := Simulate(context.Background(), mo, Witness{NSlots: 2, Gates: tGate}, Run{Shots: 1, Engine: EngineStab}); !errors.As(err, &nce) {
		t.Errorf("engine=stab on a T gate: err = %v, want *stab.NonCliffordError", err)
	}
	bad := Witness{NSlots: 2, Gates: []circuit.Gate{{Op: circuit.OpCX, Q0: 0, Q1: 5}}}
	if _, err := Simulate(context.Background(), mo, bad, Run{Shots: 1}); err == nil {
		t.Error("out-of-range witness gate accepted")
	}
	twice := Witness{NSlots: 2, Gates: []circuit.Gate{{Op: circuit.OpT, Q0: 0, Q1: -1}, {Op: circuit.OpZZ, Q0: 1, Q1: 1, Param: 0.3}}}
	if _, err := Simulate(context.Background(), mo, twice, Run{Shots: 1}); err == nil {
		t.Error("two-qubit witness gate on one slot accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Simulate(ctx, mo, bellWitness(), Run{Shots: 100000}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context: err = %v, want context.Canceled", err)
	}
}

// TestNoiseFreeModel: an empty model survives every shot with fidelity 1.
func TestNoiseFreeModel(t *testing.T) {
	est := simulate(t, Model{}, bellWitness(), 1000, 1)
	if est.Fidelity != 1 || est.Survival != 1 || est.Analytic != 1 {
		t.Errorf("noise-free estimate = %+v, want exact 1s", est)
	}
}
