package noise

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"
)

// TestPinnedOutputs pins the exact Estimate, SampleResult and streamed
// ShotRecord output of one fixed (model, witness, seed) on both engines. The
// determinism tests compare runs with each other, so a change in the order
// of the per-shot random draws would shift every run alike and pass them;
// this test catches it.
func TestPinnedOutputs(t *testing.T) {
	w := cliffordWitness(5, 3, 24)
	mo := noisySampleModel()
	ctx := context.Background()
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
	got := map[string]string{}
	for _, e := range []string{EngineDense, EngineStab} {
		got["estimate/"+e] = enc(Simulate(ctx, mo, w, Run{Shots: 3000, Seed: 11, Engine: e, Workers: 3}))
		got["sample/"+e] = enc(Sample(ctx, mo, w, SampleRun{Shots: 3000, Seed: 11, Engine: e, Workers: 3}))
		got["sample+700/"+e] = enc(Sample(ctx, mo, w, SampleRun{Shots: 600, Offset: 700, Seed: 11, Engine: e, Workers: 3}))
	}
	var recs []ShotRecord
	enc(Sample(ctx, mo, w, SampleRun{Shots: 600, Offset: 700, Seed: 11, Workers: 3, Emit: func(b []ShotRecord) error {
		recs = append(recs, b...)
		return nil
	}}))
	got["stream"] = fmt.Sprintf("sha256:%x", sha256.Sum256([]byte(enc(recs, nil))))

	want := map[string]string{
		"estimate/dense":   `{"shots":3000,"seed":11,"engine":"dense","fidelity":0.6143333333333333,"stdErr":0.008888323636208553,"ciLow":0.5969122190063645,"ciHigh":0.6317544476603021,"survival":0.575,"analytic":0.570377385075022,"lostShots":111,"errorShots":1275,"channels":[{"label":"1q-gate","prob":0.002,"trials":60,"events":333},{"label":"2q-gate","prob":0.008,"trials":40,"events":967},{"label":"decoherence","prob":0.001,"trials":80,"events":234},{"label":"transfer","prob":0.0005,"trials":80,"events":113}]}`,
		"estimate/stab":    `{"shots":3000,"seed":11,"engine":"stab","fidelity":0.6143333333333333,"stdErr":0.008888323636208553,"ciLow":0.5969122190063645,"ciHigh":0.6317544476603021,"survival":0.575,"analytic":0.570377385075022,"lostShots":111,"errorShots":1275,"channels":[{"label":"1q-gate","prob":0.002,"trials":60,"events":333},{"label":"2q-gate","prob":0.008,"trials":40,"events":967},{"label":"decoherence","prob":0.001,"trials":80,"events":234},{"label":"transfer","prob":0.0005,"trials":80,"events":113}]}`,
		"sample+700/dense": `{"shots":600,"offset":700,"seed":11,"engine":"dense","nSlots":3,"counts":{"000":72,"001":79,"010":71,"011":73,"100":72,"101":69,"110":75,"111":74},"distinct":8,"survived":347,"lostShots":15,"errorShots":253}`,
		"sample+700/stab":  `{"shots":600,"offset":700,"seed":11,"engine":"stab","nSlots":3,"counts":{"000":85,"001":70,"010":73,"011":81,"100":62,"101":82,"110":68,"111":64},"distinct":8,"survived":347,"lostShots":15,"errorShots":253}`,
		"sample/dense":     `{"shots":3000,"offset":0,"seed":11,"engine":"dense","nSlots":3,"counts":{"000":342,"001":387,"010":362,"011":367,"100":361,"101":355,"110":345,"111":370},"distinct":8,"survived":1725,"lostShots":111,"errorShots":1275}`,
		"sample/stab":      `{"shots":3000,"offset":0,"seed":11,"engine":"stab","nSlots":3,"counts":{"000":389,"001":353,"010":361,"011":387,"100":345,"101":368,"110":346,"111":340},"distinct":8,"survived":1725,"lostShots":111,"errorShots":1275}`,
		"stream":           `sha256:4db8880812df936bcd6fa50129fcea626e5144d6aaab11267fdbc5517986a16b`,
	}
	for k, g := range got {
		if g != want[k] {
			t.Errorf("%s:\n got %s\nwant %s", k, g, want[k])
		}
	}
}
