package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"atomique/internal/circuit"
	"atomique/internal/compiler"
	"atomique/internal/core"
	"atomique/internal/hardware"
	"atomique/internal/metrics"
	"atomique/internal/noise"
	"atomique/internal/pipeline"
	"atomique/internal/qasm"
	"atomique/internal/report"
)

// spanHeader carries the root span ID of a traced request to the handler
// wrapper; the service ignores it.
const spanHeader = "X-Perfbench-Span"

// probeShots is the shot count of the noise-layer probe on compile-mix,
// whose requests carry no shots of their own.
const probeShots = 1024

// span is one timed call. Spans of one request share Req; Parent is -1 for
// the request's root.
type span struct {
	Req    int       `json:"req"`
	ID     int       `json:"id"`
	Parent int       `json:"parent"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps every span in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func (t *tracer) record(req, parent int, name string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Req: req, ID: id, Parent: parent, Name: name, Start: start, End: end})
	return id
}

func (t *tracer) end(id int) {
	t.mu.Lock()
	t.spans[id].End = time.Now()
	t.mu.Unlock()
}

// time runs f as a span under parent and returns its duration.
func (t *tracer) time(req, parent int, name string, f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	end := time.Now()
	t.record(req, parent, name, start, end)
	return end.Sub(start), err
}

// wrap times the service's handler as a child of the request's root span.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		root, err := strconv.Atoi(r.Header.Get(spanHeader))
		if err != nil {
			return
		}
		t.mu.Lock()
		req := t.spans[root].Req
		t.mu.Unlock()
		t.record(req, root, "service.handler", start, time.Now())
	})
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes sums each span name's self time: its duration minus the part
// of it its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		out[s.Name] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	slices.SortFunc(kids, func(a, b span) int { return a.Start.Compare(b.Start) })
	var total time.Duration
	var cur, curEnd time.Time
	for _, k := range kids {
		s, e := maxTime(k.Start, parent.Start), minTime(k.End, parent.End)
		if !e.After(s) {
			continue
		}
		if cur.IsZero() || s.After(curEnd) {
			total += curEnd.Sub(cur)
			cur, curEnd = s, e
		} else if e.After(curEnd) {
			curEnd = e
		}
	}
	return total + curEnd.Sub(cur)
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

// layerSample is what one traced request measured, beside its spans.
type layerSample struct {
	compiled      bool // the layers of a cache miss were replayed
	parse, fp     float64
	passes        map[string]float64
	compile       float64 // Backend.Compile minus its own pass sum
	noiseRan      bool
	prep, full    float64
	shots         int
	encode        float64
	withTrace     float64
	queueWait     float64
	respBytes     int
	envelopeBytes int
	interGates    int // gates after route-interarray
	routeMoves    int // moves after route
	allocBytes    uint64
	gcCycles      uint64
	latency       float64
}

// tracedRequest sends one input through the traced handler, then replays
// the layers the service ran for it — parse and fingerprint always; passes,
// compile, noise and encoding on a cache miss; the trace splice always —
// each as a child of the request's root span.
func tracedRequest(s *server, tr *tracer, chk *checker, suite []circuitSrc, in input, req int) (layerSample, reply) {
	var ls layerSample
	root := tr.record(req, -1, "request", time.Now(), time.Time{})
	defer tr.end(root)
	a0, g0 := runtimeCounters()
	r := s.send(in, in.body(suite), map[string]string{spanHeader: strconv.Itoa(root)})
	a1, g1 := runtimeCounters()
	if r.fail == "" {
		chk.request(&r)
	}
	if r.fail != "" {
		return ls, r
	}
	ls.latency, ls.respBytes = ms(r.latency), r.bytes
	ls.allocBytes, ls.gcCycles = a1-a0, g1-g0
	ls.queueWait = queueWait(r.env)
	if err := replayLayers(tr, req, root, suite[in.circ], in, &r, &ls); err != nil {
		r.fail, r.err = failCheck, err
	}
	return ls, r
}

// queueWait finds the service's own queue.wait span in the served trace.
func queueWait(env *report.Envelope) float64 {
	if env.Trace == nil {
		return 0
	}
	for _, c := range env.Trace.Children {
		if c.Name == "queue.wait" {
			return c.Seconds * 1e3
		}
	}
	return 0
}

func replayLayers(tr *tracer, req, root int, src circuitSrc, in input, r *reply, ls *layerSample) error {
	var circ *circuit.Circuit
	d, err := tr.time(req, root, "qasm.parse", func() (err error) {
		circ, err = qasm.ParseString(src.qasm)
		return err
	})
	if err != nil {
		return err
	}
	ls.parse = ms(d)
	var fp string
	d, _ = tr.time(req, root, "circuit.fingerprint", func() error { fp = circ.Fingerprint(); return nil })
	ls.fp = ms(d)
	if fp != src.fingerprint {
		return fmt.Errorf("replayed fingerprint %s, want %s", fp, src.fingerprint)
	}
	if !r.cached {
		if err := replayCompile(tr, req, root, circ, fp, in, r, ls); err != nil {
			return err
		}
	}
	served := *r.env
	served.TraceID, served.Trace = "", nil
	cachedBytes, err := served.EncodeJSON()
	if err != nil {
		return err
	}
	d, err = tr.time(req, root, "report.with_trace", func() error {
		_, err := report.WithTrace(cachedBytes, r.env.TraceID, r.env.Trace)
		return err
	})
	ls.withTrace = ms(d)
	return err
}

// replayCompile runs each Atomique pass on one pipeline state, then the
// backend's whole Compile, the noise layer and the envelope encoding, and
// checks that the replay reproduces the served envelope.
func replayCompile(tr *tracer, req, root int, circ *circuit.Circuit, fp string, in input, r *reply, ls *layerSample) error {
	cfg := hardware.DefaultConfig()
	st := &pipeline.State{Cfg: cfg, Circ: circ, Seed: in.seed, Rng: rand.New(rand.NewSource(in.seed))}
	ls.passes = map[string]float64{}
	for _, p := range core.Passes(core.Options{Seed: in.seed}) {
		var timings []metrics.PassTiming
		d, err := tr.time(req, root, "pass."+p.Name(), func() (err error) {
			timings, err = pipeline.New(p).Run(ctx, st)
			return err
		})
		if err != nil {
			return err
		}
		ls.passes[p.Name()] = ms(d)
		switch p.Name() {
		case "route-interarray":
			ls.interGates = timings[0].Gates
		case "route":
			ls.routeMoves = timings[0].Moves
		}
	}

	be, _ := compiler.Lookup("atomique")
	start := time.Now()
	res, err := be.Compile(ctx, compiler.FPQA(cfg), circ, compiler.Options{Seed: in.seed})
	end := time.Now()
	if err != nil {
		return err
	}
	var passSum time.Duration
	for _, p := range res.Metrics.Passes {
		passSum += time.Duration(p.Seconds * 1e9)
	}
	cid := tr.record(req, root, "compiler.compile", start, end)
	tr.record(req, cid, "compiler.passes", start, start.Add(passSum))
	ls.compile = ms(end.Sub(start) - passSum)
	ls.compiled = true

	if err := replayNoise(tr, req, root, cfg, circ, in, res, ls); err != nil {
		return err
	}

	env := envelopeOf(fp, res)
	d, err := tr.time(req, root, "report.encode", func() error { _, err := env.EncodeJSON(); return err })
	if err != nil {
		return err
	}
	ls.encode = ms(d)
	want, err := canonicalBytes(env)
	if err != nil {
		return err
	}
	ls.envelopeBytes = len(want)
	have, err := canonicalBytes(*r.env)
	if err != nil {
		return err
	}
	if !bytes.Equal(have, want) {
		return fmt.Errorf("served envelope differs from the in-process replay")
	}
	return nil
}

// replayNoise times the trajectory engine once at one shot (preparation:
// witness replay, conjugation table, sampler) and once at the request's
// shots, and attaches the full result as the service does. compile-mix
// carries no shots; there the layer is probed at probeShots on Clifford
// witnesses, which the stabilizer engine runs cheaply, and nothing is
// attached.
func replayNoise(tr *tracer, req, root int, cfg hardware.Config, circ *circuit.Circuit, in input, res *compiler.Result, ls *layerSample) error {
	w := noise.Witness{NSlots: res.Program.NSlots, Gates: res.Program.Gates}
	shots, seed := in.shots, in.noiseSeed
	if shots == 0 {
		if !circ.IsClifford() || !replayable(circ, res.Program) {
			return nil
		}
		shots, seed = probeShots, 1
	}
	model := noise.Build(cfg.Params, res.Metrics)
	sample := in.path == "/v1/sample"
	run := func(n int) (err error) {
		if sample {
			var sr *noise.SampleResult
			sr, err = noise.Sample(ctx, model, w, noise.SampleRun{Shots: n, Offset: in.offset, Seed: seed})
			if n == in.shots {
				res.Sample = sr
			}
			return err
		}
		var est *noise.Estimate
		est, err = noise.Simulate(ctx, model, w, noise.Run{Shots: n, Seed: seed})
		if n == in.shots {
			res.Noise = est
		}
		return err
	}
	prep, err := tr.time(req, root, "noise.prep", func() error { return run(1) })
	if err != nil {
		return err
	}
	full, err := tr.time(req, root, "noise.run", func() error { return run(shots) })
	if err != nil {
		return err
	}
	ls.noiseRan, ls.prep, ls.full, ls.shots = true, ms(prep), ms(full), shots
	return nil
}

// runTraced is the traced run. It replays the workload's inputs in order
// with one client for at least the fixed prefix and at least d, so its
// counts over the prefix repeat exactly for a seed and its times are
// medians over every traced request.
func runTraced(srv *server, tr *tracer, w *workload, suite []circuitSrc, chk *checker, d time.Duration, tracePath string, vals map[string]float64, total *tally) error {
	before, err := srv.stats()
	if err != nil {
		return err
	}
	var after stats
	var samples []layerSample
	prefixSamples := 0
	var t tally
	start := time.Now()
	for i := 0; i < w.prefix || time.Since(start) < d; i++ {
		ls, r := tracedRequest(srv, tr, chk, suite, w.at(i), i)
		t.add(r)
		if r.fail == "" {
			samples = append(samples, ls)
		}
		if i == w.prefix-1 {
			if after, err = srv.stats(); err != nil {
				return err
			}
			prefixSamples = len(samples)
		}
	}
	wall := time.Since(start)
	printTally("traced", t)
	total.merge(t)
	if err := tr.write(tracePath); err != nil {
		fmt.Println("trace file not written:", err)
	}

	var hv []float64
	tr.mu.Lock()
	for _, s := range tr.spans {
		if s.Name == "service.handler" {
			hv = append(hv, ms(s.dur()))
		}
	}
	tr.mu.Unlock()
	all := samples
	var compiled, noisy []layerSample
	col := func(from []layerSample, f func(layerSample) float64) []float64 {
		out := make([]float64, len(from))
		for i, s := range from {
			out[i] = f(s)
		}
		return out
	}
	for _, s := range samples {
		if s.compiled {
			compiled = append(compiled, s)
		}
		if s.noiseRan {
			noisy = append(noisy, s)
		}
	}
	var prefixCompiled []layerSample
	for _, s := range samples[:prefixSamples] {
		if s.compiled {
			prefixCompiled = append(prefixCompiled, s)
		}
	}
	mean := func(v []float64) float64 {
		if len(v) == 0 {
			return 0
		}
		sum := 0.0
		for _, x := range v {
			sum += x
		}
		return sum / float64(len(v))
	}
	dHits, dMisses := float64(after.CacheHits-before.CacheHits), float64(after.CacheMisses-before.CacheMisses)
	for name, v := range map[string]float64{
		"service.handler_ms":           median(hv),
		"service.compiles_per_request": float64(after.PassRuns-before.PassRuns) / float64(w.prefix),
		"service.cache_hit_ratio":      dHits / math.Max(dHits+dMisses, 1),
		"service.queue_wait_ms":        median(col(all, func(s layerSample) float64 { return s.queueWait })),
		"service.response_bytes":       median(col(all, func(s layerSample) float64 { return float64(s.respBytes) })),
		"qasm.parse_ms":                median(col(all, func(s layerSample) float64 { return s.parse })),
		"circuit.fingerprint_ms":       median(col(all, func(s layerSample) float64 { return s.fp })),
		"pass.route-interarray.gates":  mean(col(prefixCompiled, func(s layerSample) float64 { return float64(s.interGates) })),
		"pass.route.moves":             mean(col(prefixCompiled, func(s layerSample) float64 { return float64(s.routeMoves) })),
		"compiler.compile_ms":          median(col(compiled, func(s layerSample) float64 { return s.compile })),
		"noise.prep_ms":                median(col(noisy, func(s layerSample) float64 { return s.prep })),
		"noise.shotloop_ms":            median(col(noisy, func(s layerSample) float64 { return s.full - s.prep })),
		"noise.shots_per_s":            median(col(noisy, func(s layerSample) float64 { return float64(s.shots) / s.full * 1e3 })),
		"report.encode_ms":             median(col(compiled, func(s layerSample) float64 { return s.encode })),
		"report.with_trace_ms":         median(col(all, func(s layerSample) float64 { return s.withTrace })),
		"report.envelope_bytes":        mean(col(prefixCompiled, func(s layerSample) float64 { return float64(s.envelopeBytes) })),
		"go.alloc_bytes_per_request":   median(col(all, func(s layerSample) float64 { return float64(s.allocBytes) })),
		"go.gc_cycles_per_request":     mean(col(all, func(s layerSample) float64 { return float64(s.gcCycles) })),
	} {
		vals[name] = v
	}
	for _, name := range core.PassNames() {
		vals["pass."+name+"_ms"] = median(col(compiled, func(s layerSample) float64 { return s.passes[name] }))
	}

	fmt.Printf("traced: %d requests in %.3f s (%.4g requests/s, latency p50 %.4g ms, p90 %.4g ms, 1 client); %d replayed misses, %d noise-layer calls\n",
		len(all), wall.Seconds(), float64(len(all))/wall.Seconds(),
		quantile(col(all, func(s layerSample) float64 { return s.latency }), 0.5),
		quantile(col(all, func(s layerSample) float64 { return s.latency }), 0.9),
		len(compiled), len(noisy))
	printSelfTimes(tr, len(all))
	fmt.Printf("%-30s  %s\n", "per-layer metric", "should move")
	for _, def := range perLayer {
		fmt.Printf("%-30s  %s\n", def.name, def.moves)
	}
	return nil
}

// printSelfTimes prints each span name's self time per request and its
// share of the traced wall time, and how much of the handler's time the
// replayed compile layers account for.
func printSelfTimes(tr *tracer, requests int) {
	self := tr.selfTimes()
	var names []string
	var rootTotal time.Duration
	for name, d := range self {
		names = append(names, name)
		rootTotal += d
	}
	slices.SortFunc(names, func(a, b string) int { return int(self[b] - self[a]) })
	fmt.Printf("%-24s %14s %8s\n", "span (self time)", "ms/request", "share")
	for _, name := range names {
		fmt.Printf("%-24s %14.4f %7.1f%%\n", name, ms(self[name])/float64(requests), 100*float64(self[name])/float64(rootTotal))
	}
	var layers time.Duration
	for _, name := range names {
		if strings.HasPrefix(name, "pass.") || name == "qasm.parse" || name == "circuit.fingerprint" || name == "report.encode" {
			layers += self[name]
		}
	}
	if h := self["service.handler"]; h > 0 {
		fmt.Printf("passes + parse + fingerprint + encode (replayed) = %.1f%% of service.handler self time\n", 100*float64(layers)/float64(h))
	}
}
