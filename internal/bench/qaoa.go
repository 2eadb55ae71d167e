package bench

import (
	"math"
	"math/rand"

	"atomique/internal/circuit"
	"atomique/internal/graphs"
)

// QAOARandom returns one QAOA layer for a MaxCut instance on the random
// graph G(n, p): a ZZ gate per edge followed by an RX mixer per qubit.
// The paper's QAOA-rand-N benchmarks use p = 0.5. ZZ counts as a single
// two-qubit interaction on atom hardware (Table II accounting).
func QAOARandom(n int, p float64, seed int64) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	edges := graphs.RandomGraph(n, p, rng)
	return qaoaFromEdges(n, edges, rng)
}

// QAOARegular returns one QAOA layer on a d-regular graph over n vertices
// (the QAOA-reguD-N benchmarks).
func QAOARegular(n, d int, seed int64) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	edges := graphs.RegularGraph(n, d, rng)
	return qaoaFromEdges(n, edges, rng)
}

func qaoaFromEdges(n int, edges []graphs.Edge, rng *rand.Rand) *circuit.Circuit {
	c := circuit.New(n)
	gamma := rng.Float64() * math.Pi
	beta := rng.Float64() * math.Pi
	for _, e := range edges {
		c.ZZ(e.A, e.B, gamma)
	}
	for q := 0; q < n; q++ {
		c.RX(q, beta)
	}
	return c
}

// PhaseCode returns a phase-flip repetition-code syndrome-extraction circuit
// on n qubits (alternating data/ancilla on a line) over the given number of
// rounds: each round applies H on every ancilla, CZ to both data neighbours,
// and H again. Used by the constraint-relaxation and occupancy studies
// (Figs 22-24, "Phase-Code-N").
func PhaseCode(n, rounds int) *circuit.Circuit {
	if n < 3 {
		panic("bench: PhaseCode needs >= 3 qubits")
	}
	c := circuit.New(n)
	for q := 0; q < n; q += 2 { // data qubits at even indices
		c.H(q)
	}
	for r := 0; r < rounds; r++ {
		for a := 1; a < n; a += 2 { // ancillas at odd indices
			c.H(a)
		}
		for a := 1; a < n; a += 2 {
			c.CZ(a, a-1)
			if a+1 < n {
				c.CZ(a, a+1)
			}
		}
		for a := 1; a < n; a += 2 {
			c.H(a)
		}
	}
	return c
}
