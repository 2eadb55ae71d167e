package exp

import (
	"context"
	"fmt"
	"sort"

	"atomique/internal/bench"
	"atomique/internal/compiler"
	"atomique/internal/report"
)

// noiseShots sizes the trajectory runs of the validation table: enough for
// ~0.5% binomial resolution at the corpus fidelities while keeping the
// driver fast.
const noiseShots = 4096

// noiseWorkloads are small circuits every registered backend compiles and
// whose witnesses stay inside the trajectory engine's register budget
// (Q-Pilot adds one flying ancilla per two qubits).
func noiseWorkloads() []bench.Benchmark {
	return []bench.Benchmark{
		{Name: "GHZ-8", Circ: bench.GHZ(8)},
		{Name: "QAOA-regu3-8", Circ: bench.QAOARegular(8, 3, 15)},
	}
}

// noiseRow is one (benchmark, backend) validation outcome.
type noiseRow struct {
	backend   string
	analytic  float64
	empirical float64
	ci        float64
	survival  float64
	lost      int
	timedOut  bool
}

// NoiseValidation is the Fig 13/14-style cross-backend comparison run under
// the Monte-Carlo noise model: every registered backend compiles each
// workload, its execution witness is replayed for noiseShots trajectories,
// and the table ranks backends by empirical fidelity next to the analytic
// model's prediction. Survival converging to the analytic column is the
// empirical validation of the fidelity pipeline; the empirical-vs-analytic
// gap shows how pessimistic the every-error-is-fatal analytic model is for
// each compilation style.
func NoiseValidation() []*report.Table {
	var tables []*report.Table
	for _, wl := range noiseWorkloads() {
		t := &report.Table{
			Title:  fmt.Sprintf("Noise-model validation on %s (%d trajectories per backend)", wl.Name, noiseShots),
			Header: []string{"Backend", "Analytic F", "Empirical F", "95% CI", "Survival", "|Emp-An|", "Lost shots"},
			Notes: []string{
				"Analytic = closed-form fidelity model; Empirical = mean trajectory overlap; Survival = error-free shot fraction",
				"Survival is the unbiased estimator of Analytic; Empirical >= Survival because some Pauli errors leave the output state unchanged",
				"geyser reports no analytic fidelity model, so its Analytic column is the gate-error product alone",
			},
		}
		var rows []noiseRow
		for _, b := range compiler.List() {
			res := mustCompile(b.Name(), compiler.Target{}, wl.Circ, compiler.Options{Seed: 7})
			est, _, err := compiler.RunShots(context.Background(), compiler.Target{}, res,
				compiler.ShotRun{NoisyShots: noiseShots, NoiseSeed: 11}, nil)
			if err != nil {
				panic(fmt.Sprintf("exp: %s noisy simulation failed: %v", b.Name(), err))
			}
			if est == nil {
				// An anytime solver can exhaust its budget under load;
				// keep the backend's row rather than crashing the driver.
				rows = append(rows, noiseRow{backend: b.Name(), timedOut: true})
				continue
			}
			rows = append(rows, noiseRow{
				backend:   b.Name(),
				analytic:  est.Analytic,
				empirical: est.Fidelity,
				ci:        1.96 * est.StdErr,
				survival:  est.Survival,
				lost:      est.LostShots,
			})
		}
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].empirical != rows[j].empirical {
				return rows[i].empirical > rows[j].empirical
			}
			return rows[i].backend < rows[j].backend
		})
		for _, r := range rows {
			if r.timedOut {
				t.AddRow(r.backend, "timed out", "—", "—", "—", "—", "—")
				continue
			}
			t.AddRow(r.backend,
				fmt.Sprintf("%.4f", r.analytic),
				fmt.Sprintf("%.4f", r.empirical),
				fmt.Sprintf("±%.4f", r.ci),
				fmt.Sprintf("%.4f", r.survival),
				fmt.Sprintf("%.4f", absFloat(r.empirical-r.analytic)),
				r.lost)
		}
		tables = append(tables, t)
	}
	return tables
}

func absFloat(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
