// Command perfbench is the repository benchmark. It stands the compile
// service up behind a loopback HTTP server inside its own process, drives
// one seeded closed-loop workload against it over real HTTP, checks every
// output, prints a report, and ends with one JSON line of metrics:
//
//	bash perfbench/run.sh --workload compile-mix --seed 1 --seconds 15 --trace 0
//
// --trace 0 measures the end-to-end metrics with no benchmark tracing.
// --trace 1 is the separate traced run: it replays the workload's inputs
// one at a time, times the service's handler and a call into each layer's
// public functions per request, and reports the per-layer metrics and each
// layer's self time.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"
)

// metricDef is one reported metric. moves names the end-to-end metric a
// per-layer metric should move, and on which workload.
type metricDef struct {
	name, unit, better, moves string
}

var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "requests_per_s", unit: "1/s", better: "higher"},
	{name: "latency_p50_ms", unit: "ms", better: "lower"},
	{name: "latency_p90_ms", unit: "ms", better: "lower"},
	{name: "hit_latency_p50_ms", unit: "ms", better: "lower"},
	{name: "peak_heap_mb", unit: "MB", better: "lower"},
	{name: "fidelity_geomean", unit: "ratio", better: "higher"},
	{name: "depth2q_total", unit: "count", better: "lower"},
	{name: "added_cnots_total", unit: "count", better: "lower"},
	{name: "move_dist_total_m", unit: "m", better: "lower"},
}

var perLayer = []metricDef{
	{"service.handler_ms", "ms", "lower", "every latency, all workloads"},
	{"service.compiles_per_request", "ratio", "lower", "sample-shards latency_p50_ms, shots_per_s"},
	{"service.cache_hit_ratio", "ratio", "higher", "compile-mix requests_per_s"},
	{"service.queue_wait_ms", "ms", "lower", "compile-mix latency_p90_ms"},
	{"service.response_bytes", "B", "lower", "sample-shards latency_p50_ms"},
	{"qasm.parse_ms", "ms", "lower", "compile-mix hit_latency_p50_ms, latency_p50_ms"},
	{"circuit.fingerprint_ms", "ms", "lower", "compile-mix hit_latency_p50_ms, latency_p50_ms"},
	{"pass.map-arrays_ms", "ms", "lower", "compile-mix requests_per_s, latency_p50/p90_ms; sample-shards latency_p50_ms"},
	{"pass.route-interarray_ms", "ms", "lower", "compile-mix requests_per_s, latency_p50/p90_ms; sample-shards latency_p50_ms"},
	{"pass.map-atoms_ms", "ms", "lower", "compile-mix requests_per_s, latency_p50/p90_ms; sample-shards latency_p50_ms"},
	{"pass.route_ms", "ms", "lower", "compile-mix requests_per_s, latency_p50/p90_ms; sample-shards latency_p50_ms"},
	{"pass.fidelity_ms", "ms", "lower", "compile-mix requests_per_s, latency_p50/p90_ms; sample-shards latency_p50_ms"},
	{"pass.route-interarray.gates", "count", "lower", "quality metrics (added_cnots_total, depth2q_total)"},
	{"pass.route.moves", "count", "lower", "quality metrics (move_dist_total_m, fidelity_geomean)"},
	{"compiler.compile_ms", "ms", "lower", "latency_p50_ms on all workloads"},
	{"noise.prep_ms", "ms", "lower", "sample-shards latency_p50_ms"},
	{"noise.shotloop_ms", "ms", "lower", "simulate-dense shots_per_s, latency_p50_ms"},
	{"noise.shots_per_s", "1/s", "higher", "simulate-dense shots_per_s, latency_p50_ms"},
	{"report.encode_ms", "ms", "lower", "sample-shards latency_p50_ms"},
	{"report.with_trace_ms", "ms", "lower", "compile-mix hit_latency_p50_ms"},
	{"report.envelope_bytes", "B", "lower", "sample-shards latency_p50_ms"},
	{"go.alloc_bytes_per_request", "B", "lower", "peak_heap_mb, latency_p90_ms"},
	{"go.gc_cycles_per_request", "count", "lower", "peak_heap_mb, latency_p90_ms"},
}

// Run shape.
const (
	setupRepeats = 21 // service start-ups per run; setup_s is their median
	heapEvery    = 5 * time.Millisecond
)

var warmup = map[string]int{"compile-mix": 54, "simulate-dense": 8, "sample-shards": 2 * shardsPerRun}

type result struct {
	Correct   bool                       `json:"correct"`
	Attempted int                        `json:"attempted"`
	Failed    int                        `json:"failed"`
	Metrics   map[string]json.RawMessage `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "compile-mix, simulate-dense or sample-shards")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "1 for the traced per-layer run")
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, d time.Duration, traced bool) error {
	suite, err := loadSuite()
	if err != nil {
		return err
	}
	w, err := newWorkload(name, seed, suite)
	if err != nil {
		return err
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%.0f trace=%t GOMAXPROCS=%d go=%s\n",
		w.name, seed, d.Seconds(), traced, runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Printf("workload: %s\n", w.why)

	var tr *tracer
	var wrap func(h http.Handler) http.Handler
	if traced {
		tr = &tracer{}
		wrap = tr.wrap
	}
	srv, setups, err := measureSetup(setupRepeats, wrap)
	if err != nil {
		return err
	}
	defer srv.close()

	chk := &checker{suite: suite}
	var total tally
	vals := map[string]float64{}
	var defs []metricDef
	if traced {
		defs = perLayer
		path := fmt.Sprintf(".bench_build/traces/%s-seed%d.json", w.name, seed)
		if err := runTraced(srv, tr, w, suite, chk, d, path, vals, &total); err != nil {
			return err
		}
	} else {
		defs = endToEnd
		vals["setup_s"] = median(setups)
		fmt.Printf("setup: %d start-ups, median %.6f s\n", len(setups), median(setups))
		runTimed(srv, w, suite, chk, d, vals, &total)
	}

	// Output checks that need the whole run, and the quality list.
	var checks tally
	// A run-level check that fails counts as one failed request.
	if err := chk.pooled(); err != nil {
		checks.add(reply{in: input{path: "/v1/simulate"}, fail: failCheck, err: err})
	}
	if w.name == "sample-shards" {
		mergeCheck(srv, w, suite, &checks)
	}
	// The witness replay is compile-mix's output check; the other workloads
	// still compare every quality-list envelope with an in-process compile.
	q := runQuality(srv, suite, qualityList(seed, suite), w.name == "compile-mix", &checks)
	printTally("checks", checks)
	fmt.Printf("quality list: %d (circuit, seed) pairs equal to in-process compiles, %d witnesses replayed in the simulator\n", q.pairs, q.replayed)
	total.merge(checks)
	if !traced {
		vals["fidelity_geomean"] = q.fidelityGeomean
		vals["depth2q_total"] = float64(q.depth2Q)
		vals["added_cnots_total"] = float64(q.addedCNOTs)
		vals["move_dist_total_m"] = q.moveDist
	}

	fmt.Printf("%-30s %16s  %-6s\n", "metric", "value", "unit")
	for _, def := range defs {
		fmt.Printf("%-30s %16.6g  %-6s\n", def.name, vals[def.name], def.unit)
	}
	printTally("total", total)
	if total.firstErr != nil {
		fmt.Println("first failure:", total.firstErr)
	}

	res := result{Correct: total.failures() == 0, Attempted: total.sent, Failed: total.failures(),
		Metrics: map[string]json.RawMessage{}}
	for _, def := range defs {
		v := vals[def.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		b, _ := json.Marshal(struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}{v, def.unit})
		res.Metrics[def.name] = b
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func printTally(label string, t tally) {
	var classes []string
	for _, c := range []string{failStatus, failTransport, failCheck} {
		classes = append(classes, fmt.Sprintf("%s %d", c, t.failed[c]))
	}
	ratio := 0.0
	if t.sent > 0 {
		ratio = float64(t.failures()) / float64(t.sent)
	}
	fmt.Printf("%s requests: sent %d, ok %d, failed %d (%s), failed_ratio %.4g\n",
		label, t.sent, t.ok, t.failures(), strings.Join(classes, ", "), ratio)
}

// runTimed is the untraced end-to-end run: warm-up, then the timed closed
// loop.
func runTimed(srv *server, w *workload, suite []circuitSrc, chk *checker, d time.Duration, vals map[string]float64, total *tally) {
	var warm tally
	n := warmup[w.name]
	for i := range n {
		in := w.at(i)
		r := srv.send(in, in.body(suite), nil)
		if r.fail == "" {
			chk.request(&r)
		}
		warm.add(r)
	}
	printTally("warm-up", warm)
	total.merge(warm)

	heap := startHeapSampler(heapEvery)
	replies, wall := closedLoop(srv, w, suite, n, d, chk.request)
	peak := heap.finish()

	var timed tally
	var lat, hits []float64
	shots := 0
	for _, r := range replies {
		timed.add(r)
		if r.fail != "" {
			continue
		}
		if r.cached {
			hits = append(hits, ms(r.latency))
		}
		if !r.repeat {
			lat = append(lat, ms(r.latency))
			shots += r.in.shots
		}
	}
	printTally("timed", timed)
	total.merge(timed)
	fmt.Printf("timed: %d clients, closed loop, %.3f s wall, %d latency samples, %d cache hits\n",
		w.clients, wall.Seconds(), len(lat), len(hits))

	vals["requests_per_s"] = float64(len(lat)) / wall.Seconds()
	vals["latency_p50_ms"] = quantile(lat, 0.5)
	vals["latency_p90_ms"] = quantile(lat, 0.9)
	vals["hit_latency_p50_ms"] = median(hits)
	vals["peak_heap_mb"] = float64(peak) / (1 << 20)
	fmt.Printf("shots_per_s %.6g 1/s (shots delivered per second of wall time)\n", float64(shots)/wall.Seconds())
}
