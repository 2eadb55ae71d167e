package noise

import (
	"context"
	"fmt"
	"sort"
	"strconv"

	"atomique/internal/sim"
)

// MaxSampleKeys caps the distinct bitstrings one sampling run will aggregate.
// Beyond it the histogram stops being a useful (or cacheable) summary — the
// run fails with advice to narrow the shot range or stream per-shot records.
const MaxSampleKeys = 1 << 16

// MaxShotIndex bounds Offset+Shots: global shot indices stay well inside the
// int64 range the per-shot RNG derivation mixes over.
const MaxShotIndex = int64(1) << 40

// ShotRecord is one shot's outcome in a streamed sample. Bits is the
// measurement bitstring — character i is slot i's outcome, slot 0 leftmost —
// and is empty for shots destroyed by atom loss.
type ShotRecord struct {
	Shot int64  `json:"shot"`
	Bits string `json:"bits,omitempty"`
	Lost bool   `json:"lost,omitempty"`
}

// SampleRun configures one sampling run — a trajectory run that keeps the
// measured bitstrings instead of discarding them.
type SampleRun struct {
	// Shots is the trajectory count of this request (required, > 0).
	Shots int
	// Offset is the global index of the first shot. Shot i of this run draws
	// from the RNG stream of global shot Offset+i, so disjoint shot ranges of
	// the same seed tile into exactly the histogram a single full-range run
	// produces — sampling jobs shard across workers and resume across
	// requests.
	Offset int64
	// Seed drives every random draw, exactly as in Run.
	Seed int64
	// Workers is the parallel shot-executor count (0 = GOMAXPROCS).
	Workers int
	// Engine selects the replay engine, as in Run.
	Engine string
	// Emit, when non-nil, receives every shot outcome in global shot order,
	// batched by chunk. An error return aborts the run. Emit is called from
	// the Sample goroutine, never concurrently.
	Emit func(batch []ShotRecord) error
}

// SampleResult is the aggregated outcome of a sampling run. Like Estimate it
// is deterministic per (model, witness, seed, shot range, engine) regardless
// of worker count, which is what makes shard results cacheable and mergeable.
type SampleResult struct {
	Shots  int    `json:"shots"`
	Offset int64  `json:"offset"`
	Seed   int64  `json:"seed"`
	Engine string `json:"engine"`
	NSlots int    `json:"nSlots"`
	// Counts is the histogram: bitstring (character i = slot i's outcome,
	// slot 0 leftmost) → occurrences. Lost shots carry no bitstring, so the
	// counts total Shots - LostShots.
	Counts   map[string]int64 `json:"counts"`
	Distinct int              `json:"distinct"`
	// Survived/LostShots/ErrorShots tally exactly as in Estimate: the event
	// stream per shot is identical to Simulate's, sampling draws append
	// after it.
	Survived   int `json:"survived"`
	LostShots  int `json:"lostShots"`
	ErrorShots int `json:"errorShots"`
}

// samplePartial accumulates one chunk of Sample's shots.
type samplePartial struct {
	tally
	counts  map[string]*int64
	records []ShotRecord
}

// Sample runs the Monte-Carlo sampling trajectories: Shots independent
// replays of the witness under the model's sampled error events, each
// measured in the computational basis.
//
// Per shot, the event stream is drawn exactly as Simulate draws it (the
// measurement draws append after it), so Survived/LostShots/ErrorShots agree
// with the Estimate of the same (seed, range). Error-free shots sample the
// ideal output directly — a CDF binary search on the dense engine, an
// affine-subspace draw (stab.Sampler) on the stabilizer engine. Errored
// dense shots replay and sample the errored state; errored stab shots XOR
// the shot's Pauli-frame X bits into the ideal draw, since X^aZ^b|ψ⟩ has
// |⟨z|X^aZ^b|ψ⟩|² = |⟨z⊕a|ψ⟩|². Lost shots produce no bitstring.
func Sample(ctx context.Context, mo Model, w Witness, run SampleRun) (*SampleResult, error) {
	p, err := prepare(ctx, mo, w, run.Engine, run.Shots, run.Offset, true)
	if err != nil {
		return nil, err
	}
	stream := run.Emit != nil
	var emit func(*samplePartial) error
	if stream {
		emit = func(sp *samplePartial) error { return run.Emit(sp.records) }
	}
	parts, err := runChunks(ctx, p, chunkRun{
		shots: run.Shots, offset: run.Offset, seed: run.Seed, workers: run.Workers,
		span: "noise.sample", what: "sampling",
		attrs: []string{"offset", strconv.FormatInt(run.Offset, 10), "stream", strconv.FormatBool(stream)},
	}, func() samplePartial { return samplePartial{counts: make(map[string]*int64)} },
		func(sh *shotSim, seed, g int64, sp *samplePartial) {
			lost := sh.runSample(seed, g, &sp.tally)
			sp.record(g, lost, sh.keyBuf, stream)
		}, emit)
	if err != nil {
		return nil, err
	}
	return p.reduceSample(run, parts)
}

// record counts shot g's bitstring key unless the shot was lost and, when
// streaming, appends the shot's record.
func (sp *samplePartial) record(g int64, lost bool, key []byte, stream bool) {
	var bits string
	if !lost {
		// Alloc-free lookup on the hot path; the key string materialises
		// once per distinct outcome.
		if c, ok := sp.counts[string(key)]; ok {
			*c++
		} else {
			bits = string(key)
			one := int64(1)
			sp.counts[bits] = &one
		}
	}
	if stream {
		if bits == "" && !lost {
			bits = string(key)
		}
		sp.records = append(sp.records, ShotRecord{Shot: g, Bits: bits, Lost: lost})
	}
}

// reduceSample merges Sample's chunk histograms and tallies, in chunk
// order, into the SampleResult.
func (p *prepared) reduceSample(run SampleRun, parts []samplePartial) (*SampleResult, error) {
	res := &SampleResult{
		Shots:  run.Shots,
		Offset: run.Offset,
		Seed:   run.Seed,
		Engine: p.engine,
		NSlots: p.w.NSlots,
		Counts: make(map[string]int64),
	}
	var tot tally
	for i := range parts {
		tot.merge(parts[i].tally)
		for k, v := range parts[i].counts {
			res.Counts[k] += *v
		}
		if len(res.Counts) > MaxSampleKeys {
			return nil, fmt.Errorf("noise: histogram exceeds %d distinct outcomes; narrow the shot range or stream per-shot records", MaxSampleKeys)
		}
	}
	res.Survived, res.LostShots, res.ErrorShots = tot.survived, tot.lost, tot.errored
	res.Distinct = len(res.Counts)
	return res, nil
}

// runSample executes one trajectory, tallies it into t, and leaves its
// rendered bitstring in s.keyBuf unless the shot was lost. The measurement
// draws consume the shot's stream after its event draws.
func (s *shotSim) runSample(seed, shot int64, t *tally) (lost bool) {
	r, lost := s.draw(seed, shot, nil)
	t.add(lost, len(s.events) > 0)
	if lost {
		return true
	}
	// Dense outcomes index a state vector of at most MaxQubits slots, so
	// they fit outBuf's first word.
	switch {
	case s.tab != nil:
		s.stabSampler.Shot(s.outBuf, r.next)
		if len(s.events) > 0 {
			f := s.stabFrame()
			for w := range s.outBuf {
				s.outBuf[w] ^= f.X[w]
			}
		}
	case len(s.events) == 0:
		s.outBuf[0] = uint64(s.denseSampler.Draw(r.open01()))
	default:
		s.replayDenseState()
		s.outBuf[0] = uint64(sim.SampleState(s.scratch, r.open01()))
	}
	for q := range s.keyBuf {
		s.keyBuf[q] = '0' + byte(s.outBuf[q>>6]>>uint(q&63)&1)
	}
	return false
}

// MergeSamples combines shard results from disjoint shot ranges of the same
// sampling job. When the shards tile a contiguous range, the merged histogram
// is bit-for-bit the single-request histogram over that range — per-shot RNG
// streams depend only on (seed, global shot index).
func MergeSamples(parts ...*SampleResult) (*SampleResult, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("noise: nothing to merge")
	}
	sorted := make([]*SampleResult, len(parts))
	copy(sorted, parts)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Offset < sorted[j].Offset })
	first := sorted[0]
	out := &SampleResult{
		Offset: first.Offset,
		Seed:   first.Seed,
		Engine: first.Engine,
		NSlots: first.NSlots,
		Counts: make(map[string]int64),
	}
	prevEnd := first.Offset
	for _, p := range sorted {
		if p.Seed != first.Seed || p.Engine != first.Engine || p.NSlots != first.NSlots {
			return nil, fmt.Errorf("noise: shards disagree on (seed, engine, slots): (%d,%s,%d) vs (%d,%s,%d)",
				first.Seed, first.Engine, first.NSlots, p.Seed, p.Engine, p.NSlots)
		}
		if p.Offset < prevEnd {
			return nil, fmt.Errorf("noise: shard ranges overlap at shot %d", p.Offset)
		}
		prevEnd = p.Offset + int64(p.Shots)
		out.Shots += p.Shots
		out.Survived += p.Survived
		out.LostShots += p.LostShots
		out.ErrorShots += p.ErrorShots
		for k, v := range p.Counts {
			out.Counts[k] += v
		}
		if len(out.Counts) > MaxSampleKeys {
			return nil, fmt.Errorf("noise: merged histogram exceeds %d distinct outcomes", MaxSampleKeys)
		}
	}
	out.Distinct = len(out.Counts)
	return out, nil
}
