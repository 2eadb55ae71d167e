package noise

import (
	"context"
	"math"
	"math/bits"
	"sort"

	"atomique/internal/circuit"
	"atomique/internal/sim"
	"atomique/internal/stab"
)

// MaxQubits bounds the witness width the dense trajectory engine will
// replay — the O(2^n) fallback for non-Clifford witnesses.
const MaxQubits = 22

// MaxStabQubits bounds the stabilizer trajectory engine. Tableau memory and
// per-gate cost grow only quadratically, so this is a service-sanity cap at
// paper-scale widths, far above the dense wall.
const MaxStabQubits = 1024

// Trajectory engine names, as accepted by Run.Engine and the service's
// engine request field.
const (
	// EngineAuto (or empty) dispatches Clifford witnesses to the stabilizer
	// engine and everything else to the dense fallback.
	EngineAuto = "auto"
	// EngineDense forces the dense state-vector replay (≤ MaxQubits).
	EngineDense = "dense"
	// EngineStab forces the stabilizer tableau replay; the witness must be
	// Clifford-only or Simulate returns a *stab.NonCliffordError.
	EngineStab = "stab"
)

// ValidEngine reports whether name is an accepted Run.Engine value
// (the empty string means EngineAuto).
func ValidEngine(name string) bool {
	switch name {
	case "", EngineAuto, EngineDense, EngineStab:
		return true
	}
	return false
}

// Witness is the executable gate stream a compilation produced — a mirror of
// compiler.Program's simulation-relevant fields, redeclared here so the
// compiler package can depend on noise without a cycle.
type Witness struct {
	// NSlots is the physical register width the gates act on.
	NSlots int
	// Gates is the stream in execution order; slots are in [0, NSlots).
	Gates []circuit.Gate
}

// Run configures one trajectory simulation.
type Run struct {
	// Shots is the trajectory count (required, > 0).
	Shots int
	// Seed drives every random draw. Shot i derives its own generator from
	// (Seed, i), so results are reproducible and independent of Workers.
	Seed int64
	// Workers is the parallel shot-executor count (0 = GOMAXPROCS).
	Workers int
	// Engine selects the replay engine: EngineAuto (or ""), EngineDense, or
	// EngineStab. Auto dispatches Clifford witnesses to the stabilizer
	// tableau — which handles hundreds to thousands of qubits — and falls
	// back to the dense state vector otherwise.
	Engine string
}

// ChannelReport is one channel's sampled-event tally in an Estimate.
type ChannelReport struct {
	Label  string  `json:"label"`
	Prob   float64 `json:"prob"`
	Trials int     `json:"trials"`
	Events int64   `json:"events"`
}

// Estimate is the empirical outcome of a trajectory run. It is deterministic
// per (model, witness, shots, seed) regardless of worker count, which is
// what lets the compile service cache noisy results content-addressed.
type Estimate struct {
	Shots int   `json:"shots"`
	Seed  int64 `json:"seed"`
	// Engine is the replay engine that scored the trajectories ("dense" or
	// "stab"), after auto-dispatch resolution.
	Engine string `json:"engine,omitempty"`
	// Fidelity is the mean trajectory overlap |<ideal|traj>|^2 with the
	// noise-free execution of the same witness.
	Fidelity float64 `json:"fidelity"`
	// StdErr is the standard error of Fidelity; CILow/CIHigh bound the 95%
	// confidence interval.
	StdErr float64 `json:"stdErr"`
	CILow  float64 `json:"ciLow"`
	CIHigh float64 `json:"ciHigh"`
	// Survival is the error-free trajectory fraction — the unbiased
	// estimator of the analytic fidelity product.
	Survival float64 `json:"survival"`
	// Analytic is the model's closed-form no-error probability, the
	// reference Survival converges to (and, for backends with a fidelity
	// model, the compiler's reported FidelityTotal).
	Analytic float64 `json:"analytic"`
	// LostShots counts trajectories destroyed by an atom-loss event;
	// ErrorShots counts trajectories with at least one sampled event.
	LostShots  int `json:"lostShots"`
	ErrorShots int `json:"errorShots"`
	// Channels tallies sampled events per channel, in model order.
	Channels []ChannelReport `json:"channels,omitempty"`
}

// SurvivalSigma returns the one-sigma binomial half-width of the Survival
// estimator around the analytic prediction — the yardstick the validation
// suite measures empirical-vs-analytic agreement with.
func (e *Estimate) SurvivalSigma() float64 {
	a := e.Analytic
	return math.Sqrt(a * (1 - a) / float64(e.Shots))
}

// rng is splitmix64: tiny, allocation-free, and statistically ample for
// event sampling. Each shot gets an independent stream.
type rng struct{ s uint64 }

// mix64 is the splitmix64 finalizer (a bijective avalanche).
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// shotRNG derives shot i's generator from (seed, i). The initial state runs
// through the finalizer twice so consecutive shots land at unrelated points
// of the splitmix sequence — a plain affine state (seed ^ (shot+c)*gamma)
// would make shot i+1's stream a one-draw shift of shot i's, correlating
// adjacent shots and invalidating the i.i.d. assumption behind the
// confidence intervals.
func shotRNG(seed int64, shot int64) rng {
	return rng{s: mix64(uint64(seed) ^ mix64(uint64(shot)+0x632be59bd9b4e019))}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

// open01 returns a uniform float in (0, 1].
func (r *rng) open01() float64 {
	return (float64(r.next()>>11) + 1) / (1 << 53)
}

// intn returns a uniform int in [0, n) by Lemire's multiply-shift rejection
// sampling — exactly unbiased, one multiply in the common case. The old
// next()%n was biased by < n/2^64: invisible in survival statistics, but
// product-visible now that sampled bitstrings ship to clients. Rejection
// draws an extra word with probability < n/2^64, and event placement feeds no
// golden (survival and event tallies depend only on the open01 stream, which
// is untouched), so no regress entries needed re-goldening.
func (r *rng) intn(n int) int {
	un := uint64(n)
	hi, lo := bits.Mul64(r.next(), un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			hi, lo = bits.Mul64(r.next(), un)
		}
	}
	return int(hi)
}

// event is one sampled error, applied after pos gates of the stream.
type event struct {
	pos    int
	site   int // gate index the event is attached to, or -1 when free-floating
	kind   Kind
	q0, q1 int
	pauli  int // 1..3 for 1Q (X,Y,Z); 1..15 encoding a Pauli pair for 2Q
}

// partial accumulates one chunk of Simulate's shots.
type partial struct {
	tally
	sumF, sumF2 float64
	events      []int64
}

// ResolveEngine performs auto-dispatch for a witness: the engine Simulate
// will score trajectories with, given the requested engine name ("" meaning
// auto). It does not validate width limits — Simulate reports those.
func ResolveEngine(requested string, w Witness) string {
	switch requested {
	case EngineDense, EngineStab:
		return requested
	default: // "", EngineAuto
		if circuit.AllClifford(w.Gates) && w.NSlots <= MaxStabQubits {
			return EngineStab
		}
		return EngineDense
	}
}

// Simulate runs the Monte-Carlo trajectory estimation: Shots independent
// replays of the witness under the model's sampled error events, scored
// against the witness's noise-free output state. Shots that sample no event
// skip the replay entirely (their overlap is exactly 1), so high-fidelity
// programs execute at event-sampling speed and the shot loop stays
// embarrassingly parallel.
//
// Clifford witnesses dispatch (under EngineAuto) to the stabilizer tableau:
// sampled Pauli errors propagate as a Pauli frame and each trajectory scores
// 0 or 1 by a stabilizer syndrome check, in O(n) per gate instead of O(2^n).
// Both engines consume the identical per-shot random stream, so Survival,
// event tallies — and, for Clifford witnesses, Fidelity — agree across
// engines; results remain deterministic per (model, witness, shots, seed,
// engine) whatever the worker count.
func Simulate(ctx context.Context, mo Model, w Witness, run Run) (*Estimate, error) {
	p, err := prepare(ctx, mo, w, run.Engine, run.Shots, 0, false)
	if err != nil {
		return nil, err
	}
	return p.simulate(ctx, run)
}

// simulate runs Simulate's shot loop over a prepared engine.
func (p *prepared) simulate(ctx context.Context, run Run) (*Estimate, error) {
	parts, err := runChunks(ctx, p, chunkRun{
		shots: run.Shots, seed: run.Seed, workers: run.Workers,
		span: "noise.trajectory", what: "simulation",
	}, func() partial { return partial{events: make([]int64, len(p.mo.Channels))} }, (*shotSim).run, nil)
	if err != nil {
		return nil, err
	}
	return p.reduceEstimate(run, parts), nil
}

// reduceEstimate folds Simulate's chunk partials, in chunk order, into the
// Estimate: mean overlap with its confidence interval, survival, and the
// per-channel event tallies.
func (p *prepared) reduceEstimate(run Run, parts []partial) *Estimate {
	var tot partial
	tot.events = make([]int64, len(p.mo.Channels))
	for i := range parts {
		pt := &parts[i]
		tot.sumF += pt.sumF
		tot.sumF2 += pt.sumF2
		tot.merge(pt.tally)
		for j, n := range pt.events {
			tot.events[j] += n
		}
	}

	n := float64(run.Shots)
	mean := tot.sumF / n
	variance := 0.0
	if run.Shots > 1 {
		variance = (tot.sumF2 - tot.sumF*tot.sumF/n) / (n - 1)
		if variance < 0 {
			variance = 0
		}
	}
	stderr := math.Sqrt(variance / n)
	est := &Estimate{
		Shots:      run.Shots,
		Seed:       run.Seed,
		Engine:     p.engine,
		Fidelity:   mean,
		StdErr:     stderr,
		CILow:      clamp01(mean - 1.96*stderr),
		CIHigh:     clamp01(mean + 1.96*stderr),
		Survival:   float64(tot.survived) / n,
		Analytic:   p.mo.Analytic(),
		LostShots:  tot.lost,
		ErrorShots: tot.errored,
	}
	for i, c := range p.mo.Channels {
		est.Channels = append(est.Channels, ChannelReport{
			Label: c.Label, Prob: c.Prob, Trials: c.Trials, Events: tot.events[i],
		})
	}
	return est
}

// shotSim is one worker's reusable trajectory state: a copy of the shared
// prepared engine (held by value, so the per-shot hot path reads its fields
// without an extra indirection), scratch for exactly one replay engine — a
// dense state vector, or a worker-private Pauli frame for the stabilizer
// tableau — plus, when sampling, the outcome buffers.
type shotSim struct {
	prepared
	events []event

	scratch *sim.State
	frame   *stab.Frame

	outBuf []uint64 // qubit-packed outcome scratch
	keyBuf []byte   // rendered bitstring scratch, one byte per slot
}

func (p *prepared) newShotSim() *shotSim {
	s := &shotSim{prepared: *p}
	if p.tab != nil {
		s.frame = p.tab.NewFrame()
	} else {
		s.scratch = sim.MustNew(p.w.NSlots)
	}
	if p.denseSampler != nil || p.stabSampler != nil {
		s.outBuf = make([]uint64, (p.w.NSlots+63)/64)
		s.keyBuf = make([]byte, p.w.NSlots)
	}
	return s
}

// draw seeds global shot's generator and draws its error events into
// s.events — the one event stream Simulate and Sample both consume. It adds
// each channel's hit count to hits (when non-nil) and reports whether an
// atom was lost. The returned generator continues after the event draws,
// where Sample's measurement draws begin.
func (s *shotSim) draw(seed, shot int64, hits []int64) (r rng, lost bool) {
	r = shotRNG(seed, shot)
	s.events = s.events[:0]
	for ci := range s.mo.Channels {
		c := &s.mo.Channels[ci]
		n := s.sampleChannel(&r, c)
		if n == 0 {
			continue
		}
		if hits != nil {
			hits[ci] += int64(n)
		}
		if c.Kind == Loss {
			lost = true
		}
	}
	return r, lost
}

// run executes one trajectory and folds its outcome into pt.
func (s *shotSim) run(seed, shot int64, pt *partial) {
	_, lost := s.draw(seed, shot, pt.events)
	pt.add(lost, len(s.events) > 0)
	switch {
	case lost:
		// overlap 0: the register lost an atom
	case len(s.events) == 0:
		pt.sumF++
		pt.sumF2++
	default:
		f := s.replay()
		pt.sumF += f
		pt.sumF2 += f * f
	}
}

// sampleChannel draws the channel's Binomial(trials, p) error events via
// geometric gap-skipping — O(expected hits), not O(trials) — and records
// each event's placement. It returns the hit count.
func (s *shotSim) sampleChannel(r *rng, c *Channel) int {
	hits := 0
	emit := func() {
		hits++
		if c.Kind == Loss {
			return // placement irrelevant: the shot scores zero
		}
		s.events = append(s.events, s.placeEvent(r, c))
	}
	if c.Prob >= 1 {
		for t := 0; t < c.Trials; t++ {
			emit()
		}
		return hits
	}
	logq := math.Log1p(-c.Prob)
	pos := -1
	for {
		skip := int(math.Log(r.open01()) / logq)
		pos += 1 + skip
		if pos >= c.Trials || pos < 0 { // pos < 0 guards int overflow on tiny p
			return hits
		}
		emit()
	}
}

// placeEvent localises one sampled error in the witness stream.
func (s *shotSim) placeEvent(r *rng, c *Channel) event {
	switch c.Kind {
	case Pauli1Q:
		if len(s.oneQSites) > 0 {
			gi := s.oneQSites[r.intn(len(s.oneQSites))]
			return event{pos: gi + 1, site: gi, kind: Pauli1Q, q0: s.w.Gates[gi].Q0, pauli: 1 + r.intn(3)}
		}
		// The analytic model counted 1Q gates the witness does not carry
		// individually; fall back to a random qubit at a random point.
		return event{pos: r.intn(len(s.w.Gates) + 1), site: -1, kind: Pauli1Q, q0: r.intn(s.w.NSlots), pauli: 1 + r.intn(3)}
	case Pauli2Q:
		if len(s.twoQSites) > 0 {
			gi := s.twoQSites[r.intn(len(s.twoQSites))]
			g := s.w.Gates[gi]
			return event{pos: gi + 1, site: gi, kind: Pauli2Q, q0: g.Q0, q1: g.Q1, pauli: 1 + r.intn(15)}
		}
		q0 := r.intn(s.w.NSlots)
		q1 := q0
		if s.w.NSlots > 1 {
			q1 = (q0 + 1 + r.intn(s.w.NSlots-1)) % s.w.NSlots
		}
		return event{pos: r.intn(len(s.w.Gates) + 1), site: -1, kind: Pauli2Q, q0: q0, q1: q1, pauli: 1 + r.intn(15)}
	default: // Dephase
		return event{pos: r.intn(len(s.w.Gates) + 1), site: -1, kind: Dephase, q0: r.intn(s.w.NSlots), pauli: 3}
	}
}

var pauliOps = [4]circuit.Op{0, circuit.OpX, circuit.OpY, circuit.OpZ}

// replay scores one errored trajectory: the overlap of the execution with
// the shot's events injected against the ideal output.
//
// On the stabilizer engine it accumulates the shot's end-of-circuit Pauli
// frame and syndrome-checks it against the final tableau's stabilizers: for
// a Clifford trajectory the overlap is exactly 1 when the accumulated error
// commutes with every stabilizer and 0 otherwise. Each event contributes its
// precomputed conjugation image (see conjTable), so the replay is O(events)
// — event order is irrelevant, XOR commutes.
func (s *shotSim) replay() float64 {
	if s.tab != nil {
		if s.tab.Disturbs(s.stabFrame()) {
			return 0
		}
		return 1
	}
	s.replayDenseState()
	return sim.Fidelity(s.scratch, s.ideal)
}

// stabFrame rebuilds the shot's end-of-circuit Pauli frame from its events.
func (s *shotSim) stabFrame() *stab.Frame {
	f := s.frame
	f.Reset()
	for i := range s.events {
		s.ct.accumulate(f, &s.events[i])
	}
	return f
}

// replayDenseState re-executes the witness with the shot's events (at
// least one) injected, leaving the errored final state in s.scratch. The
// gates before the first event are the noise-free prefix: the replay starts
// from the last checkpoint at or before it, or from |0…0⟩.
func (s *shotSim) replayDenseState() {
	sort.Slice(s.events, func(i, j int) bool { return s.events[i].pos < s.events[j].pos })
	st := s.scratch
	start := 0
	if s.ckptEvery > 0 {
		if c := min(s.events[0].pos/s.ckptEvery, len(s.ckpts)); c > 0 {
			copy(st.Amp, s.ckpts[c-1])
			start = c * s.ckptEvery
		}
	}
	if start == 0 {
		for i := range st.Amp {
			st.Amp[i] = 0
		}
		st.Amp[0] = 1
	}
	ei := 0
	apply := func(pos int) {
		for ei < len(s.events) && s.events[ei].pos == pos {
			s.applyEvent(st, &s.events[ei])
			ei++
		}
	}
	apply(start)
	for gi := start; gi < len(s.w.Gates); gi++ {
		st.Apply(s.w.Gates[gi])
		apply(gi + 1)
	}
}

func (s *shotSim) applyEvent(st *sim.State, e *event) {
	switch e.kind {
	case Pauli2Q:
		if p := e.pauli & 3; p != 0 {
			st.Apply(circuit.Gate{Op: pauliOps[p], Q0: e.q0, Q1: -1})
		}
		if p := e.pauli >> 2; p != 0 {
			st.Apply(circuit.Gate{Op: pauliOps[p], Q0: e.q1, Q1: -1})
		}
	default: // Pauli1Q, Dephase
		st.Apply(circuit.Gate{Op: pauliOps[e.pauli&3], Q0: e.q0, Q1: -1})
	}
}
