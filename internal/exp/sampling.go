package exp

import (
	"context"
	"fmt"
	"reflect"

	"atomique/internal/bench"
	"atomique/internal/circuit"
	"atomique/internal/compiler"
	"atomique/internal/noise"
	"atomique/internal/report"
)

// Sampling exercises the measurement-sampling product (/v1/sample) across
// both trajectory engines: small non-Clifford chemistry circuits sample
// through the dense state-vector, wide GHZ and surface-code circuits through
// the stabilizer affine-subspace sampler at widths the dense engine cannot
// represent. Every row also runs sharded — the shot range split in two,
// merged via noise.MergeSamples — and asserts the merge identity (shards ==
// one full-range run, bit for bit) on real compiled witnesses, not just the
// unit-test circuits.
func Sampling() []*report.Table {
	t := &report.Table{
		Title: "Measurement sampling across trajectory engines (sharded + merged)",
		Header: []string{"Circuit", "Qubits", "Engine", "Shots", "Distinct",
			"Top outcome", "P(top)", "Error shots", "Lost"},
		Notes: []string{
			"each circuit also runs as two disjoint shot ranges merged via noise.MergeSamples,",
			"verified bit-identical to the single full-range run (per-shot RNG keys on the global index)",
		},
	}
	for _, cs := range []struct {
		name  string
		circ  *circuit.Circuit
		shots int
	}{
		{"H2-4", mustBench("H2-4"), 4000},
		{"QSim-rand-5", mustBench("QSim-rand-5"), 4000},
		{"Surface-d3", bench.SurfaceCodeCycle(3, 1), 4000},
		{"GHZ-48", bench.GHZ(48), 20000},
		{"GHZ-96", bench.GHZ(96), 20000},
	} {
		tgt := compiler.Target{}
		res := mustCompile("atomique", tgt, cs.circ, compiler.Options{Seed: 7})
		run := compiler.ShotRun{NoisyShots: cs.shots, NoiseSeed: 13, SampleBits: true}
		full := sampleShard(tgt, res, run)

		// The shard runs reuse the compiled witness; only the shot range
		// differs, exactly as a resumed or fanned-out /v1/sample job would.
		lo, hi := run, run
		lo.NoisyShots = cs.shots / 2
		hi.ShotOffset, hi.NoisyShots = int64(lo.NoisyShots), cs.shots-lo.NoisyShots
		merged, err := noise.MergeSamples(sampleShard(tgt, res, lo), sampleShard(tgt, res, hi))
		if err != nil {
			panic(fmt.Sprintf("exp: %s: sampling merge failed: %v", cs.name, err))
		}
		if !reflect.DeepEqual(merged, full) {
			panic(fmt.Sprintf("exp: %s: merged shards differ from the full run", cs.name))
		}

		top, topCount := "", int64(-1)
		for b, c := range full.Counts {
			if c > topCount || c == topCount && b < top {
				top, topCount = b, c
			}
		}
		if len(top) > 16 {
			top = top[:13] + "..."
		}
		t.AddRow(cs.name, cs.circ.N, full.Engine, full.Shots, full.Distinct,
			top, fmt.Sprintf("%.4f", float64(topCount)/float64(full.Shots)),
			full.ErrorShots, full.LostShots)
	}
	return []*report.Table{t}
}

// sampleShard samples one shot range over an already-compiled result.
func sampleShard(tgt compiler.Target, res *compiler.Result, run compiler.ShotRun) *noise.SampleResult {
	_, sr, err := compiler.RunShots(context.Background(), tgt, res, run, nil)
	if err != nil {
		panic(fmt.Sprintf("exp: sampling shots [%d, %d) failed: %v", run.ShotOffset, run.ShotOffset+int64(run.NoisyShots), err))
	}
	return sr
}

// mustBench resolves a named benchmark circuit.
func mustBench(name string) *circuit.Circuit {
	b, ok := bench.ByName(name)
	if !ok {
		panic(fmt.Sprintf("exp: unknown benchmark %q", name))
	}
	return b.Circ
}
