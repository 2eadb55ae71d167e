package core

import (
	"math/rand"
	"testing"

	"atomique/internal/bench"
	"atomique/internal/hardware"
)

// Micro-benchmarks for the compiler itself (the paper's compile-time story:
// milliseconds per circuit, linear-ish scaling).

func BenchmarkCompileQAOA40(b *testing.B) {
	cfg := hardware.DefaultConfig()
	c := bench.QAOARegular(40, 5, 15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(cfg, c, Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompileQSim40(b *testing.B) {
	cfg := hardware.DefaultConfig()
	c := bench.QSimRandom(40, 10, 0.5, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(cfg, c, Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompileQV32(b *testing.B) {
	cfg := hardware.DefaultConfig()
	c := bench.QV(32, 32, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(cfg, c, Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompileQAOA100(b *testing.B) {
	cfg := hardware.DefaultConfig()
	c := bench.QAOARegular(100, 6, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(cfg, c, Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// stagePlanWorkload generates a fixed random attempt sequence over a
// realistically occupied machine; both stage-plan implementations replay
// exactly the same sequence.
func stagePlanWorkload() (cfg hardware.Config, sites [][3]int, attempts [][2]int) {
	cfg = hardware.SquareConfig(10, 2)
	rng := rand.New(rand.NewSource(17))
	cells := randomSites(rng, cfg, 30)
	for i := 0; i < 600; i++ {
		a := rng.Intn(len(cells))
		b := rng.Intn(len(cells) - 1)
		if b >= a {
			b++
		}
		attempts = append(attempts, [2]int{a, b})
	}
	return cfg, cells, attempts
}

func benchStagePlan(b *testing.B, try func(p *stagePlan, a, bb int) addReason) {
	cfg, cells, attempts := stagePlanWorkload()
	siteOf := make([]hardware.Site, len(cells))
	for slot, s := range cells {
		siteOf[slot] = hardware.Site{Array: s[0], Row: s[1], Col: s[2]}
	}
	st := newRouterState(cfg, siteOf, Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan := newStagePlan(st)
		for _, at := range attempts {
			if plan.pairs[pairKey(at[0], at[1])] {
				continue
			}
			try(plan, at[0], at[1])
		}
	}
}

// BenchmarkStagePlanIncremental measures the production tryAdd: undo
// journal plus neighbour-only constraint rechecks.
func BenchmarkStagePlanIncremental(b *testing.B) {
	benchStagePlan(b, func(p *stagePlan, x, y int) addReason { return p.tryAdd(x, y) })
}

// BenchmarkStagePlanFullRebuild measures the pre-refactor algorithm
// (full constraint rescan, rebuild-from-scratch on rejection) on the same
// attempt sequence.
func BenchmarkStagePlanFullRebuild(b *testing.B) {
	benchStagePlan(b, func(p *stagePlan, x, y int) addReason { return p.tryAddReference(x, y) })
}
