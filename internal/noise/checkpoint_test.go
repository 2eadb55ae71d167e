package noise

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"atomique/internal/circuit"
)

// genericWitness returns a seeded random non-Clifford witness over n slots:
// generic rotation angles, so every errored overlap is a generic float.
func genericWitness(seed int64, n, gates int) Witness {
	rng := rand.New(rand.NewSource(seed))
	c := circuit.New(n)
	for i := 0; i < gates; i++ {
		a := rng.Intn(n)
		b := (a + 1 + rng.Intn(n-1)) % n
		switch rng.Intn(6) {
		case 0:
			c.H(a)
		case 1:
			c.Add1Q(circuit.OpT, a, 0)
		case 2:
			c.RX(a, rng.Float64()*2*math.Pi)
		case 3:
			c.CX(a, b)
		case 4:
			c.ZZ(a, b, rng.Float64()*2*math.Pi)
		case 5:
			c.Add2Q(circuit.OpSWAP, a, b, 0)
		}
	}
	return Witness{NSlots: n, Gates: c.Gates}
}

// prepareSpaced prepares a dense run of w with checkpoints every `every`
// gates (0 = none, the checkpoint-free replay) instead of the budgeted
// spacing.
func prepareSpaced(t *testing.T, mo Model, w Witness, sampling bool, every int) *prepared {
	t.Helper()
	p, err := prepare(context.Background(), mo, w, EngineDense, 1, 0, sampling)
	if err != nil {
		t.Fatal(err)
	}
	ideal, ckpts, err := denseReference(w, every)
	if err != nil {
		t.Fatal(err)
	}
	p.ideal, p.ckpts, p.ckptEvery = ideal, ckpts, every
	return p
}

func TestCheckpointSpacing(t *testing.T) {
	for _, tc := range []struct {
		slots, gates, budget, want int
	}{
		{10, 34, checkpointBytes, 1},  // every gate fits: 34 × 16 KiB
		{19, 34, checkpointBytes, 34}, // one 8 MiB state fits
		{20, 34, checkpointBytes, 0},  // one state exceeds the budget
		{10, 0, checkpointBytes, 0},   // nothing to checkpoint
		{3, 100, 10 * 128, 10},
		{3, 101, 10 * 128, 11},
		{3, 9, 10 * 128, 1},
	} {
		got := checkpointSpacing(tc.slots, tc.gates, tc.budget)
		if got != tc.want {
			t.Errorf("checkpointSpacing(%d, %d, %d) = %d, want %d", tc.slots, tc.gates, tc.budget, got, tc.want)
		}
		if got > 0 && (tc.gates/got)*(16<<tc.slots) > tc.budget {
			t.Errorf("spacing %d over %d gates overruns the %d-byte budget", got, tc.gates, tc.budget)
		}
	}
}

// TestCheckpointReplayBitIdentical resumes errored replays from
// checkpoints at several spacings and compares every amplitude with the
// replay from |0…0⟩: first events at every position from 0 (before any
// gate) to len(Gates) (after the last), which covers every checkpoint
// boundary, each alone and followed by a second event further on.
func TestCheckpointReplayBitIdentical(t *testing.T) {
	w := genericWitness(3, 4, 23)
	mo := testModel(10, 10)
	base := prepareSpaced(t, mo, w, false, 0).newShotSim()
	g := len(w.Gates)
	for _, every := range []int{1, 2, 3, 7, g, g + 1} {
		sh := prepareSpaced(t, mo, w, false, every).newShotSim()
		for first := 0; first <= g; first++ {
			for _, second := range []int{-1, first, (first + g) / 2, g} {
				evs := []event{{pos: first, site: -1, kind: Pauli1Q, q0: first % 4, pauli: 1 + first%3}}
				if second >= 0 {
					evs = append(evs, event{pos: second, site: -1, kind: Pauli2Q, q0: 1, q1: 3, pauli: 1 + second%15})
				}
				base.events = append(base.events[:0], evs...)
				sh.events = append(sh.events[:0], evs...)
				base.replayDenseState()
				sh.replayDenseState()
				for i, a := range sh.scratch.Amp {
					b := base.scratch.Amp[i]
					if math.Float64bits(real(a)) != math.Float64bits(real(b)) || math.Float64bits(imag(a)) != math.Float64bits(imag(b)) {
						t.Fatalf("every=%d events at %d,%d: amplitude %d = %v, from-scratch replay %v", every, first, second, i, a, b)
					}
				}
			}
		}
	}
}

// TestCheckpointRunsBitIdentical compares whole Simulate and Sample
// outputs, byte for byte, between checkpointed and checkpoint-free
// replays — including a witness with no gates at all, where every event
// sits at position 0 and there is nothing to checkpoint.
func TestCheckpointRunsBitIdentical(t *testing.T) {
	ctx := context.Background()
	mo := Model{Channels: []Channel{
		{Label: "1q-gate", Kind: Pauli1Q, Trials: 40, Prob: 0.01},
		{Label: "2q-gate", Kind: Pauli2Q, Trials: 30, Prob: 0.02},
		{Label: "decoherence", Kind: Dephase, Trials: 60, Prob: 0.01},
		{Label: "transfer", Kind: Loss, Trials: 20, Prob: 0.001},
	}}
	enc := func(v any, err error) string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for _, w := range []Witness{{NSlots: 3}, genericWitness(5, 5, 40)} {
		g := len(w.Gates)
		outputs := func(every int) string {
			p := prepareSpaced(t, mo, w, true, every)
			return enc(p.simulate(ctx, Run{Shots: 2000, Seed: 9, Workers: 2})) + "\n" +
				enc(p.sample(ctx, SampleRun{Shots: 2000, Offset: 300, Seed: 9, Workers: 2}))
		}
		want := outputs(0)
		for _, every := range []int{1, 4, g, g + 1, checkpointSpacing(w.NSlots, g, checkpointBytes)} {
			if got := outputs(every); got != want {
				t.Errorf("%d gates, checkpoints every %d:\n got %s\nwant %s", g, every, got, want)
			}
		}
	}
}

// TestNoCheckpointsBeyondBudget: a register whose single state exceeds the
// budget replays from |0…0⟩ without allocating checkpoints.
func TestNoCheckpointsBeyondBudget(t *testing.T) {
	const slots = 20 // 16 MiB per state
	c := circuit.New(slots)
	c.H(0)
	c.CX(0, slots-1)
	p, err := prepare(context.Background(), testModel(1, 1), Witness{NSlots: slots, Gates: c.Gates}, EngineDense, 1, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if p.ckptEvery != 0 || p.ckpts != nil {
		t.Fatalf("%d slots: checkpoints every %d (%d kept), want none", slots, p.ckptEvery, len(p.ckpts))
	}
}
