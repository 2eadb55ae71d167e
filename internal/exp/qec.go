package exp

import (
	"context"
	"fmt"

	"atomique/internal/bench"
	"atomique/internal/compiler"
	"atomique/internal/hardware"
	"atomique/internal/report"
)

// SurfaceCode is the first QEC workload driver: rotated surface-code
// syndrome-extraction cycles (distance 3-7, 17-97 qubits) compiled onto the
// zoned architecture, with the empirical fidelity measured by the stabilizer
// trajectory engine — at these widths the dense engine cannot replay a
// single shot, so every row past d=3 exists because of the Clifford fast
// path.
func SurfaceCode() []*report.Table {
	t := &report.Table{
		Title: "Surface-code cycles on the zoned backend (stabilizer-engine trajectories)",
		Header: []string{"Code", "Qubits", "2Q gates", "Shuttle rounds", "Time (s)",
			"Fid analytic", "Survival", "Overlap", "Engine"},
		Notes: []string{
			"rotated surface code: d^2 data + d^2-1 syndrome ancillas, coherent extraction (measurement deferred)",
			"Survival/Overlap: 2000 Monte-Carlo Pauli-frame trajectories through internal/stab",
		},
	}
	for _, s := range []struct{ d, rounds int }{{3, 1}, {3, 2}, {5, 1}, {5, 2}, {7, 1}} {
		c := bench.SurfaceCodeCycle(s.d, s.rounds)
		tgt := compiler.Zoned(hardware.ZonesFor(c.N))
		res := mustCompile("zoned", tgt, c, compiler.Options{Seed: 7})
		est, _, err := compiler.RunShots(context.Background(), tgt, res,
			compiler.ShotRun{NoisyShots: 2000, NoiseSeed: 11}, nil)
		if err != nil {
			panic(fmt.Sprintf("exp: surface-code noise run failed: %v", err))
		}
		t.AddRow(fmt.Sprintf("d=%d r=%d", s.d, s.rounds),
			c.N, res.Metrics.N2Q, res.Metrics.Depth2Q,
			fmt.Sprintf("%.4f", res.Metrics.ExecutionTime),
			fmt.Sprintf("%.4f", res.Metrics.FidelityTotal()),
			fmt.Sprintf("%.4f", est.Survival),
			fmt.Sprintf("%.4f", est.Fidelity),
			est.Engine)
	}
	return []*report.Table{t}
}
