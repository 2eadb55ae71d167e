package noise

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"atomique/internal/obs"
	"atomique/internal/sim"
	"atomique/internal/stab"
)

// Simulate and Sample share one trajectory runner: prepare validates the
// call and builds the engine state once, runChunks runs the shot range in
// fixed chunks over a worker pool, and each entry point reduces the
// per-chunk partials in chunk order with its own reducer.

// prepared is one call's engine state, shared read-only by every worker:
// the noise-free reference — a dense state vector, or the final stabilizer
// tableau with its conjugation table — and the error-site tables.
type prepared struct {
	mo     Model
	w      Witness
	engine string

	ideal *sim.State
	tab   *stab.Tableau
	ct    *conjTable

	// Dense checkpoints: ckpts[i] is the noise-free state after
	// (i+1)·ckptEvery gates, so an errored shot replays only the gates from
	// the last checkpoint at or before its first event. ckptEvery is 0 when
	// there are none.
	ckptEvery int
	ckpts     [][]complex128

	// Samplers of the ideal output, built for Sample only.
	denseSampler *sim.Sampler
	stabSampler  *stab.Sampler

	// Error-site tables: gate-attached events pick a uniform site of their
	// kind in the witness stream.
	oneQSites, twoQSites []int
}

// prepare validates a run of shots trajectories starting at global shot
// offset, resolves the engine, and replays the witness noise-free. With
// sampling set it also builds the ideal-output sampler.
func prepare(ctx context.Context, mo Model, w Witness, engine string, shots int, offset int64, sampling bool) (*prepared, error) {
	if shots <= 0 {
		return nil, fmt.Errorf("noise: shots must be positive, got %d", shots)
	}
	if offset < 0 {
		return nil, fmt.Errorf("noise: shot offset must be non-negative, got %d", offset)
	}
	if offset > MaxShotIndex-int64(shots) {
		return nil, fmt.Errorf("noise: shot range [%d, %d) exceeds the global index cap 2^40", offset, offset+int64(shots))
	}
	if !ValidEngine(engine) {
		return nil, fmt.Errorf("noise: unknown engine %q (want %s, %s, or %s)", engine, EngineAuto, EngineDense, EngineStab)
	}
	if w.NSlots <= 0 {
		return nil, fmt.Errorf("noise: witness register %d slots wide; want at least 1", w.NSlots)
	}
	p := &prepared{mo: mo, w: w, engine: ResolveEngine(engine, w)}
	switch {
	case p.engine == EngineDense && w.NSlots > MaxQubits:
		return nil, fmt.Errorf("noise: witness register %d slots wide; the dense trajectory engine handles 1..%d (Clifford witnesses dispatch to engine=stab)", w.NSlots, MaxQubits)
	case p.engine == EngineStab && w.NSlots > MaxStabQubits:
		return nil, fmt.Errorf("noise: witness register %d slots wide; the stabilizer trajectory engine handles 1..%d", w.NSlots, MaxStabQubits)
	}
	for i, g := range w.Gates {
		if g.Q0 < 0 || g.Q0 >= w.NSlots || (g.IsTwoQubit() && (g.Q1 < 0 || g.Q1 >= w.NSlots)) {
			return nil, fmt.Errorf("noise: witness gate %d (%v) addresses a slot outside [0,%d)", i, g, w.NSlots)
		}
		if g.IsTwoQubit() && g.Q0 == g.Q1 {
			return nil, fmt.Errorf("noise: witness gate %d (%v) acts twice on slot %d", i, g, g.Q0)
		}
	}

	// Traced callers (the compile service) get spans for the witness replay
	// and the parallel shot loop. Untraced callers pay a nil check.
	replaySpan := obs.SpanFromContext(ctx).StartChild("witness.replay")
	switch p.engine {
	case EngineStab:
		t, err := stab.New(w.NSlots)
		if err != nil {
			return nil, fmt.Errorf("noise: %w", err)
		}
		if err := t.Run(w.Gates); err != nil {
			return nil, fmt.Errorf("noise: engine=%s: %w", EngineStab, err)
		}
		if sampling {
			if p.stabSampler, err = t.NewSampler(); err != nil {
				return nil, fmt.Errorf("noise: %w", err)
			}
		}
		p.tab = t
		p.ct = newConjTable(w)
	default:
		p.ckptEvery = checkpointSpacing(w.NSlots, len(w.Gates), checkpointBytes)
		st, ckpts, err := denseReference(w, p.ckptEvery)
		if err != nil {
			return nil, fmt.Errorf("noise: %w", err)
		}
		p.ideal, p.ckpts = st, ckpts
		if sampling {
			p.denseSampler = sim.NewSampler(st)
		}
	}
	if replaySpan != nil {
		replaySpan.SetAttr("slots", strconv.Itoa(w.NSlots))
		replaySpan.SetAttr("gates", strconv.Itoa(len(w.Gates)))
		replaySpan.SetAttr("engine", p.engine)
		replaySpan.End()
	}

	for i, g := range w.Gates {
		if g.IsTwoQubit() {
			p.twoQSites = append(p.twoQSites, i)
		} else {
			p.oneQSites = append(p.oneQSites, i)
		}
	}
	return p, nil
}

// checkpointBytes budgets one dense run's checkpoints. It bounds memory
// rather than fixing a gate count, so spacing widens with the register
// width, and a register whose single state exceeds it gets no checkpoints.
const checkpointBytes = 8 << 20

// checkpointSpacing returns the gate spacing of a dense run's checkpoints:
// the smallest spacing whose gates/spacing checkpoints of 2^slots
// amplitudes fit budget bytes, or 0 for no checkpoints.
func checkpointSpacing(slots, gates, budget int) int {
	perState := 16 << uint(slots) // complex128 amplitudes
	fit := budget / perState
	if gates == 0 || fit == 0 {
		return 0
	}
	return (gates + fit - 1) / fit
}

// denseReference replays w noise-free from |0…0⟩ and returns the final
// state with a copy of the state after every `every` gates (none when every
// is 0). A checkpoint comes from the same op sequence an errored replay
// runs, so resuming from one is bit-identical to replaying from the start.
func denseReference(w Witness, every int) (*sim.State, [][]complex128, error) {
	st, err := sim.NewState(w.NSlots)
	if err != nil {
		return nil, nil, err
	}
	var ckpts [][]complex128
	if every > 0 {
		ckpts = make([][]complex128, len(w.Gates)/every)
		backing := make([]complex128, len(ckpts)*len(st.Amp))
		for i := range ckpts {
			ckpts[i] = backing[i*len(st.Amp) : (i+1)*len(st.Amp)]
		}
	}
	for gi, g := range w.Gates {
		st.Apply(g)
		if every > 0 && (gi+1)%every == 0 {
			copy(ckpts[(gi+1)/every-1], st.Amp)
		}
	}
	return st, ckpts, nil
}

// chunkShots is the work-unit size of the parallel shot loop. Chunk
// boundaries are fixed by shot index, so partials reduce in the same order
// whatever the worker count — keeping results deterministic.
const chunkShots = 256

// chunkRun is one call's shot loop: the global shots [offset, offset+shots)
// drawn from seed by workers goroutines (0 = GOMAXPROCS).
type chunkRun struct {
	shots   int
	offset  int64
	seed    int64
	workers int
	// span names the loop's span; attrs are extra key/value pairs for it.
	span  string
	attrs []string
	// what names the run in its cancellation error.
	what string
}

// tally is the per-shot outcome split both reducers report.
type tally struct{ survived, lost, errored int }

// add counts one shot: lost to an atom, errored by any sampled event, or
// error-free.
func (t *tally) add(lost, errored bool) {
	switch {
	case lost:
		t.lost++
		t.errored++
	case errored:
		t.errored++
	default:
		t.survived++
	}
}

func (t *tally) merge(o tally) {
	t.survived += o.survived
	t.lost += o.lost
	t.errored += o.errored
}

// runChunks runs cr's shots over p and returns the per-chunk partials in
// chunk order. Each worker owns one shotSim; newPart makes a chunk's empty
// partial and shot folds one global shot into it. When emit is non-nil it
// receives every finished partial in chunk order on the calling goroutine,
// and an error from it aborts the run.
func runChunks[P any](ctx context.Context, p *prepared, cr chunkRun, newPart func() P, shot func(sh *shotSim, seed, g int64, pt *P), emit func(pt *P) error) ([]P, error) {
	workers := cr.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	numChunks := (cr.shots + chunkShots - 1) / chunkShots
	// Chunk sub-spans are recorded from worker goroutines (obs spans are
	// concurrency-safe) and capped by the span's child limit.
	span := obs.SpanFromContext(ctx).StartChild(cr.span)
	if span != nil {
		span.SetAttr("shots", strconv.Itoa(cr.shots))
		span.SetAttr("chunks", strconv.Itoa(numChunks))
		span.SetAttr("workers", strconv.Itoa(workers))
		span.SetAttr("engine", p.engine)
		for i := 0; i+1 < len(cr.attrs); i += 2 {
			span.SetAttr(cr.attrs[i], cr.attrs[i+1])
		}
	}
	parts := make([]P, numChunks)
	var nextChunk atomic.Int64
	var cancelled atomic.Bool
	var wg sync.WaitGroup
	// When emitting, done[c] closes once chunk c is computed, and worker
	// look-ahead past the emit cursor is bounded so buffered partials stay
	// O(workers·chunk) however slow the consumer: a worker surrenders a
	// ticket per chunk it claims, the emitter returns one per chunk it
	// flushes. Once the emitter stops it closes tickets, releasing blocked
	// workers to find the run finished or cancelled.
	var done []chan struct{}
	var tickets chan struct{}
	if emit != nil {
		done = make([]chan struct{}, numChunks)
		for i := range done {
			done[i] = make(chan struct{})
		}
		tickets = make(chan struct{}, workers*4)
		for i := 0; i < cap(tickets); i++ {
			tickets <- struct{}{}
		}
	}
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sh := p.newShotSim()
			for {
				if tickets != nil {
					<-tickets
				}
				c := int(nextChunk.Add(1) - 1)
				if c >= numChunks || cancelled.Load() {
					return
				}
				if ctx.Err() != nil {
					cancelled.Store(true)
					return
				}
				pt := &parts[c]
				*pt = newPart()
				lo := cr.offset + int64(c*chunkShots)
				hi := min(lo+chunkShots, cr.offset+int64(cr.shots))
				chunkStart := time.Now()
				for g := lo; g < hi; g++ {
					shot(sh, cr.seed, g, pt)
				}
				if done != nil {
					close(done[c])
				}
				if span != nil {
					if cs := span.Record("chunk", chunkStart, time.Since(chunkStart)); cs != nil {
						cs.SetAttr("shots", fmt.Sprintf("%d..%d", lo, hi-1))
					}
				}
			}
		}()
	}

	var emitErr error
	if emit != nil {
		workersDone := make(chan struct{})
		go func() {
			wg.Wait()
			close(workersDone)
		}()
	emitLoop:
		for c := 0; c < numChunks; c++ {
			select {
			case <-done[c]:
			case <-workersDone:
				select {
				case <-done[c]:
				default:
					break emitLoop // run aborted before chunk c computed
				}
			}
			if err := emit(&parts[c]); err != nil {
				cancelled.Store(true)
				emitErr = err
				break emitLoop
			}
			tickets <- struct{}{}
		}
		close(tickets)
	}
	wg.Wait()
	span.End()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("noise: %s cancelled: %w", cr.what, err)
	}
	if emitErr != nil {
		return nil, fmt.Errorf("noise: shot stream aborted: %w", emitErr)
	}
	return parts, nil
}
