package sim

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"atomique/internal/circuit"
)

// refApply is the plain per-index form of the gate kernels: one pass over
// every amplitude with a bit test per index. The stride kernels must match
// it bit for bit, which is what keeps trajectory outputs pinned.
func refApply(s *State, g circuit.Gate) {
	if !g.IsTwoQubit() {
		u := gate1Q(g.Op, g.Param)
		bit := 1 << uint(g.Q0)
		for i := range s.Amp {
			if i&bit != 0 {
				continue
			}
			a0, a1 := s.Amp[i], s.Amp[i|bit]
			s.Amp[i] = u[0]*a0 + u[1]*a1
			s.Amp[i|bit] = u[2]*a0 + u[3]*a1
		}
		return
	}
	b0 := 1 << uint(g.Q0)
	b1 := 1 << uint(g.Q1)
	switch g.Op {
	case circuit.OpCX:
		for i := range s.Amp {
			if i&b0 != 0 && i&b1 == 0 {
				j := i | b1
				s.Amp[i], s.Amp[j] = s.Amp[j], s.Amp[i]
			}
		}
	case circuit.OpCZ:
		for i := range s.Amp {
			if i&b0 != 0 && i&b1 != 0 {
				s.Amp[i] = -s.Amp[i]
			}
		}
	case circuit.OpZZ:
		pe := cmplx.Exp(complex(0, -g.Param/2))
		po := cmplx.Exp(complex(0, g.Param/2))
		for i := range s.Amp {
			if (i&b0 != 0) != (i&b1 != 0) {
				s.Amp[i] *= po
			} else {
				s.Amp[i] *= pe
			}
		}
	case circuit.OpSWAP:
		for i := range s.Amp {
			if i&b0 != 0 && i&b1 == 0 {
				j := (i &^ b0) | b1
				s.Amp[i], s.Amp[j] = s.Amp[j], s.Amp[i]
			}
		}
	default:
		panic(fmt.Sprintf("sim: not a two-qubit op: %v", g.Op))
	}
}

// randomState fills n qubits with independent Gaussian amplitudes — generic
// values, so a kernel that reorders a single float operation shows up.
func randomState(n int, rng *rand.Rand) *State {
	s := MustNew(n)
	for i := range s.Amp {
		s.Amp[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return s
}

// checkAgainstRef applies g to a copy of s with Apply and with refApply and
// reports the first amplitude whose bits differ.
func checkAgainstRef(t *testing.T, s *State, g circuit.Gate) {
	t.Helper()
	got, want := s.Clone(), s.Clone()
	got.Apply(g)
	refApply(want, g)
	for i := range got.Amp {
		gr, gi := math.Float64bits(real(got.Amp[i])), math.Float64bits(imag(got.Amp[i]))
		wr, wi := math.Float64bits(real(want.Amp[i])), math.Float64bits(imag(want.Amp[i]))
		if gr != wr || gi != wi {
			t.Fatalf("n=%d %v: amplitude %d = %v, reference %v", s.N, g, i, got.Amp[i], want.Amp[i])
		}
	}
}

var (
	ops1Q = []circuit.Op{circuit.OpH, circuit.OpX, circuit.OpY, circuit.OpZ, circuit.OpS,
		circuit.OpT, circuit.OpRX, circuit.OpRY, circuit.OpRZ, circuit.OpU}
	ops2Q = []circuit.Op{circuit.OpCX, circuit.OpCZ, circuit.OpZZ, circuit.OpSWAP}
)

// TestApplyMatchesReference covers every op on every qubit and every
// ordered qubit pair (q0 > q1 included) at widths 1..6.
func TestApplyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 6; n++ {
		for _, op := range ops1Q {
			for q := 0; q < n; q++ {
				g := circuit.Gate{Op: op, Q0: q, Q1: -1, Param: (rng.Float64() - 0.5) * 4 * math.Pi}
				checkAgainstRef(t, randomState(n, rng), g)
			}
		}
		for _, op := range ops2Q {
			for q0 := 0; q0 < n; q0++ {
				for q1 := 0; q1 < n; q1++ {
					if q0 == q1 {
						continue
					}
					g := circuit.Gate{Op: op, Q0: q0, Q1: q1, Param: (rng.Float64() - 0.5) * 4 * math.Pi}
					checkAgainstRef(t, randomState(n, rng), g)
				}
			}
		}
	}
}

// FuzzApplyMatchesReference hunts for a gate, width, angle and state on
// which a stride kernel and the per-index reference disagree in any bit.
//
// Run it as a fuzzer with
// `go test -run='^$' -fuzz='^FuzzApplyMatchesReference$' ./internal/sim`.
func FuzzApplyMatchesReference(f *testing.F) {
	f.Add(uint8(3), uint8(circuit.OpH), uint8(0), uint8(1), 0.0, int64(1))
	f.Add(uint8(6), uint8(circuit.OpCX), uint8(5), uint8(0), 0.0, int64(2))
	f.Add(uint8(4), uint8(circuit.OpZZ), uint8(1), uint8(3), 0.7, int64(3))
	f.Add(uint8(8), uint8(circuit.OpSWAP), uint8(7), uint8(2), 0.0, int64(4))
	f.Add(uint8(5), uint8(circuit.OpRX), uint8(4), uint8(0), -2.5, int64(5))
	f.Fuzz(func(t *testing.T, width, opIdx, a, b uint8, theta float64, seed int64) {
		if math.IsNaN(theta) || math.IsInf(theta, 0) {
			t.Skip("non-finite angle")
		}
		n := 1 + int(width)%8
		op := circuit.Op(int(opIdx) % int(circuit.OpSWAP+1))
		g := circuit.Gate{Op: op, Q0: int(a) % n, Q1: -1, Param: theta}
		if op.IsTwoQubit() {
			if n < 2 {
				t.Skip("two-qubit op on one qubit")
			}
			g.Q1 = (g.Q0 + 1 + int(b)%(n-1)) % n
		}
		checkAgainstRef(t, randomState(n, rand.New(rand.NewSource(seed))), g)
	})
}
