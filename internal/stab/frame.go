package stab

import (
	"math/bits"

	"atomique/internal/circuit"
)

// Frame is a Pauli error frame: the qubit-packed X/Z components of a sampled
// error, propagated forward through the remaining Clifford gates by
// conjugation (signs are irrelevant — a global ±1 on the trajectory state
// never changes its overlap with the ideal state). One Frame per trajectory
// worker lets many goroutines share a single read-only final Tableau: the
// syndrome scratch lives here, not on the tableau.
type Frame struct {
	n    int
	X, Z []uint64 // over qubits
	syn  []uint64 // row-syndrome scratch sized for the owning tableau
}

// NewFrame returns an identity (error-free) frame sized for t.
func (t *Tableau) NewFrame() *Frame {
	nw := (t.n + 63) / 64
	return &Frame{n: t.n, X: make([]uint64, nw), Z: make([]uint64, nw), syn: make([]uint64, t.w)}
}

// Reset clears the frame back to the identity.
func (f *Frame) Reset() {
	for w := range f.X {
		f.X[w], f.Z[w] = 0, 0
	}
}

// InjectX/InjectY/InjectZ multiply a Pauli error on qubit q into the frame.
func (f *Frame) InjectX(q int) { f.X[q>>6] ^= 1 << uint(q&63) }
func (f *Frame) InjectZ(q int) { f.Z[q>>6] ^= 1 << uint(q&63) }
func (f *Frame) InjectY(q int) { f.InjectX(q); f.InjectZ(q) }

func (f *Frame) xBit(q int) uint64 { return f.X[q>>6] >> uint(q&63) & 1 }
func (f *Frame) zBit(q int) uint64 { return f.Z[q>>6] >> uint(q&63) & 1 }

func (f *Frame) xorX(q int, v uint64) { f.X[q>>6] ^= v << uint(q&63) }
func (f *Frame) xorZ(q int, v uint64) { f.Z[q>>6] ^= v << uint(q&63) }

func (f *Frame) swapXZ(q int) {
	x, z := f.xBit(q), f.zBit(q)
	f.xorX(q, x^z)
	f.xorZ(q, x^z)
}

// Conjugate pushes the frame through one Clifford gate (frame ← g·frame·g†,
// signs dropped). It panics on a non-Clifford gate: trajectory callers
// validate the whole witness stream with circuit.AllClifford before entering
// the per-shot loop, so a violation here is an invariant failure, not input.
func (f *Frame) Conjugate(g circuit.Gate) {
	switch g.Op {
	case circuit.OpX, circuit.OpY, circuit.OpZ:
		// Paulis commute with the frame up to sign.
	case circuit.OpH:
		f.swapXZ(g.Q0)
	case circuit.OpS:
		f.xorZ(g.Q0, f.xBit(g.Q0))
	case circuit.OpRZ:
		if quarterOdd(g) {
			f.xorZ(g.Q0, f.xBit(g.Q0))
		}
	case circuit.OpRX:
		if quarterOdd(g) {
			f.xorX(g.Q0, f.zBit(g.Q0))
		}
	case circuit.OpRY, circuit.OpU:
		if quarterOdd(g) {
			f.swapXZ(g.Q0)
		}
	case circuit.OpCX:
		f.xorX(g.Q1, f.xBit(g.Q0))
		f.xorZ(g.Q0, f.zBit(g.Q1))
	case circuit.OpCZ:
		za := f.xBit(g.Q1)
		zb := f.xBit(g.Q0)
		f.xorZ(g.Q0, za)
		f.xorZ(g.Q1, zb)
	case circuit.OpZZ:
		if quarterOdd(g) {
			d := f.xBit(g.Q0) ^ f.xBit(g.Q1)
			f.xorZ(g.Q0, d)
			f.xorZ(g.Q1, d)
		}
	case circuit.OpSWAP:
		a, b := g.Q0, g.Q1
		xa, za := f.xBit(a), f.zBit(a)
		xb, zb := f.xBit(b), f.zBit(b)
		f.xorX(a, xa^xb)
		f.xorZ(a, za^zb)
		f.xorX(b, xa^xb)
		f.xorZ(b, za^zb)
	default:
		panic(&NonCliffordError{Gate: g, Index: -1})
	}
}

// quarterOdd reports whether a rotation gate sits at an odd quarter-turn
// (±π/2) — even multiples of π/2 are Paulis or the identity, which conjugate
// a frame trivially. Panics on non-Clifford angles (see Conjugate).
func quarterOdd(g circuit.Gate) bool {
	k, ok := circuit.CliffordQuarterTurns(g.Param)
	if !ok {
		panic(&NonCliffordError{Gate: g, Index: -1})
	}
	return k == 1 || k == 3
}

// Disturbs reports whether the frame anticommutes with any stabilizer of t —
// for a Clifford trajectory, exactly the condition under which the errored
// final state is orthogonal to the ideal one (overlap 0 instead of 1).
func (t *Tableau) Disturbs(f *Frame) bool {
	if f.n != t.n {
		panic("stab: frame width mismatch")
	}
	syn := f.syn
	for w := range syn {
		syn[w] = 0
	}
	// Frames are sparse: visit only the set bits of each word.
	for qw := range f.X {
		for b := f.X[qw]; b != 0; b &= b - 1 {
			xorInto(syn, t.z[qw<<6|bits.TrailingZeros64(b)])
		}
		for b := f.Z[qw]; b != 0; b &= b - 1 {
			xorInto(syn, t.x[qw<<6|bits.TrailingZeros64(b)])
		}
	}
	for w := 0; w < t.w; w++ {
		if syn[w]&t.stabMask[w] != 0 {
			return true
		}
	}
	return false
}

// xorInto sets dst ^= src word by word.
func xorInto(dst, src []uint64) {
	for w := range dst {
		dst[w] ^= src[w]
	}
}
