// Package service turns the one-shot compilers into a long-running compile
// service: a bounded job queue drained by a worker pool that runs any
// registered compiler backend concurrently (compilation is deterministic per
// seed, so results are safely parallelizable and cacheable), fronted by a
// content-addressed LRU result cache keyed on (backend, circuit fingerprint,
// target, compile options). Backends are selected per request through the
// unified registry (internal/compiler); GET /v1/backends lists them. The
// HTTP/JSON API lives in http.go; the engine here is equally usable
// in-process (cmd/experiments routes the figure drivers' compilations
// through it to dedupe repeated sweeps).
package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"atomique/internal/admission"
	"atomique/internal/bench"
	"atomique/internal/circuit"
	"atomique/internal/compiler"
	"atomique/internal/hardware"
	"atomique/internal/metrics"
	"atomique/internal/noise"
	"atomique/internal/obs"
	"atomique/internal/obs/slo"
	"atomique/internal/qasm"
	"atomique/internal/report"

	_ "atomique/internal/compiler/backends" // register the built-in backends
)

// DefaultBackend is the backend used when a request does not name one.
const DefaultBackend = "atomique"

// ErrQueueFull is returned by fail-fast submission when the bounded job
// queue has no free slot; the HTTP layer maps it to 429 Too Many Requests.
var ErrQueueFull = errors.New("service: job queue full")

// ErrOverloaded marks any load-shedding rejection (queue full or admission
// control); errors.Is(err, ErrOverloaded) matches both.
var ErrOverloaded = errors.New("service: overloaded")

// ErrClosed is returned for submissions after Close; the HTTP layer maps it
// to 503 Service Unavailable.
var ErrClosed = errors.New("service: engine closed")

// OverloadedError is the structured load-shed rejection: the HTTP layer
// renders it as a 429 with a Retry-After header computed from the predicted
// queue drain time. QueueFull distinguishes a physically full queue (also
// matched by errors.Is(err, ErrQueueFull)) from a proactive admission shed.
type OverloadedError struct {
	// RetryAfter is the advised client backoff.
	RetryAfter time.Duration
	// Reason explains the shed (queue full, predicted wait over objective).
	Reason string
	// QueueFull marks a full-queue rejection rather than an admission shed.
	QueueFull bool
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("service: overloaded: %s (retry after %s)", e.Reason, e.RetryAfter.Round(time.Millisecond))
}

// Is matches ErrOverloaded always and ErrQueueFull for full-queue sheds, so
// pre-admission callers checking errors.Is(err, ErrQueueFull) keep working.
func (e *OverloadedError) Is(target error) bool {
	return target == ErrOverloaded || (e.QueueFull && target == ErrQueueFull)
}

// RequestError marks a client-side request problem (unknown benchmark,
// malformed QASM, bad options); the HTTP layer maps it to 400 Bad Request.
type RequestError struct {
	Msg string
	// Line is the 1-based QASM source line for parse errors, 0 otherwise.
	Line int
}

func (e *RequestError) Error() string { return e.Msg }

// Config sizes the engine. The zero value gets sensible defaults.
type Config struct {
	// Workers is the initial worker-pool size (default: GOMAXPROCS).
	Workers int
	// WorkersMin and WorkersMax bound the adaptive pool (Resize and the
	// admission controller's actuator clamp to them). When both are unset
	// the pool is fixed at Workers, preserving the pre-adaptive behaviour.
	WorkersMin, WorkersMax int
	// Admission configures the saturation-aware control loop: worker-pool
	// autoscaling within [WorkersMin, WorkersMax] plus load shedding with
	// computed Retry-After. Disabled by default.
	Admission admission.Config
	// QueueSize bounds the job queue (default: 64).
	QueueSize int
	// CacheSize bounds the result cache entry count (default: 256).
	CacheSize int
	// Hardware is the default machine for requests without an override
	// (default: hardware.DefaultConfig).
	Hardware hardware.Config
	// TraceBuffer bounds the finished-trace ring buffer behind GET
	// /v1/traces (default: 256). A quarter of it (at least one slot) is
	// reserved for pinned traces — errors, sheds, and slow-tail outliers —
	// which ordinary churn cannot evict.
	TraceBuffer int
	// TraceSample is the probability a fast successful trace enters the ring
	// (0 defaults to 1 — keep everything; negative keeps nothing). Pinned
	// traces always bypass the coin.
	TraceSample float64
	// SLO declares the burn-rate objectives evaluated against the engine's
	// own counters; an empty config gets slo.DefaultConfig over the three
	// request classes. Invalid configs must be caught by the loader
	// (slo.ParseConfig); New panics on one.
	SLO slo.Config
	// Bundles configures the flight recorder; an empty Dir disables it.
	Bundles BundleConfig
	// Logger receives structured job-lifecycle events, correlated by trace
	// ID (default: discard). cmd/atomiqued passes a JSON logger here.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	// Unset bounds pin the pool at its initial size; explicit bounds clamp
	// the initial size into range.
	if c.WorkersMin <= 0 && c.WorkersMax <= 0 {
		c.WorkersMin, c.WorkersMax = c.Workers, c.Workers
	}
	if c.WorkersMin <= 0 {
		c.WorkersMin = 1
	}
	if c.WorkersMax < c.WorkersMin {
		c.WorkersMax = c.WorkersMin
	}
	if c.Workers < c.WorkersMin {
		c.Workers = c.WorkersMin
	}
	if c.Workers > c.WorkersMax {
		c.Workers = c.WorkersMax
	}
	c.Admission.MinWorkers = c.WorkersMin
	c.Admission.MaxWorkers = c.WorkersMax
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 256
	}
	if c.TraceBuffer <= 0 {
		c.TraceBuffer = 256
	}
	switch {
	case c.TraceSample == 0:
		c.TraceSample = 1
	case c.TraceSample < 0:
		c.TraceSample = 0
	}
	// Only a fully zero Hardware gets the paper default; a non-zero but
	// invalid machine (e.g. an SLM with no AODs) is kept and rejected loudly
	// by Validate at resolve time rather than silently replaced.
	if c.Hardware.NumArrays() <= 1 && c.Hardware.SLM.Capacity() == 0 {
		c.Hardware = hardware.DefaultConfig()
	}
	return c
}

// Request is one compile order: either a named Table II benchmark or inline
// OpenQASM 2.0 source, plus the backend to compile with (default "atomique";
// see GET /v1/backends), compile options, and a device override. FPQA
// backends accept a machine override (any of SLM/AODs/AODSize set builds a
// custom machine; unset fields keep the paper's defaults); fixed-topology
// backends accept a coupling family instead.
type Request struct {
	Benchmark string `json:"benchmark,omitempty"`
	QASM      string `json:"qasm,omitempty"`

	Backend string `json:"backend,omitempty"` // registered backend name

	// Priority is the scheduling class: "interactive" (default) or
	// "batch". Workers strictly prefer interactive jobs, and under load
	// the admission controller sheds batch traffic first. The batch
	// endpoint and the in-process experiments path default to "batch".
	Priority string `json:"priority,omitempty"`

	Seed   int64   `json:"seed,omitempty"`
	Serial bool    `json:"serial,omitempty"` // ablation: serial router
	Dense  bool    `json:"dense,omitempty"`  // ablation: round-robin mapper
	Relax  string  `json:"relax,omitempty"`  // comma-separated constraint IDs (1,2,3)
	Exact  bool    `json:"exact,omitempty"`  // solver backends: exact (exponential) mode
	Budget float64 `json:"budget,omitempty"` // solver backends: compile budget in seconds (0 = backend default)

	// Shots enables Monte-Carlo trajectory noise estimation (0 = off): the
	// compiled program is replayed this many times under sampled noise and
	// the empirical fidelity rides in the result envelope's "noise" field.
	// POST /v1/simulate defaults it to DefaultSimulateShots. All noise
	// options are part of the content-addressed cache key, so noisy and
	// ideal results never alias.
	Shots int `json:"shots,omitempty"`
	// NoiseSeed seeds trajectory sampling, independently of Seed.
	NoiseSeed int64 `json:"noiseSeed,omitempty"`
	// Engine pins the trajectory simulation engine ("auto", "dense",
	// "stab"; empty = auto). Auto dispatches Clifford circuits to the
	// stabilizer engine — which lifts the dense width cap to
	// noise.MaxStabQubits — and everything else to the dense
	// state-vector.
	Engine string `json:"engine,omitempty"`
	// Sample switches the trajectory run from fidelity estimation to
	// measurement sampling (the /v1/sample product): each shot's
	// computational-basis bitstring is recorded and the histogram rides in
	// the envelope's "sample" field instead of a fidelity estimate in
	// "noise". Needs shots > 0.
	Sample bool `json:"sample,omitempty"`
	// ShotOffset is the global index of the first sampled shot (sampling
	// only). Per-shot randomness derives from (noiseSeed, global index), so
	// disjoint shot ranges from separate requests tile into one histogram —
	// sharded, resumable sampling. Each range is its own cache entry.
	ShotOffset int64 `json:"shotOffset,omitempty"`
	// NoiseScale multiplies every noise-channel probability (0 = 1.0).
	NoiseScale float64 `json:"noiseScale,omitempty"`
	// Noise1Q / Noise2Q override the hardware-derived per-gate error
	// probabilities when positive.
	Noise1Q float64 `json:"noise1Q,omitempty"`
	Noise2Q float64 `json:"noise2Q,omitempty"`

	SLM     int    `json:"slm,omitempty"`     // SLM side length (FPQA backends)
	AODs    int    `json:"aods,omitempty"`    // number of AOD arrays (FPQA backends)
	AODSize int    `json:"aodSize,omitempty"` // AOD side length (FPQA backends)
	Family  string `json:"family,omitempty"`  // coupling family (fixed-topology backends)
	// Zones overrides the zone geometry (and optionally the physical
	// parameters) for zoned backends; unset selects the backend's default
	// machine grown to fit the circuit.
	Zones *compiler.ZonedSpec `json:"zones,omitempty"`
}

// State is a job's lifecycle phase.
type State string

// Job lifecycle states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Job is the externally visible snapshot of a compile job.
type Job struct {
	ID          string          `json:"id"`
	State       State           `json:"state"`
	TraceID     string          `json:"traceId,omitempty"`
	Backend     string          `json:"backend,omitempty"`
	Benchmark   string          `json:"benchmark,omitempty"`
	CircuitHash string          `json:"circuitHash"`
	Cached      bool            `json:"cached"`
	Error       string          `json:"error,omitempty"`
	Result      json.RawMessage `json:"result,omitempty"`
	SubmittedAt time.Time       `json:"submittedAt"`
	FinishedAt  *time.Time      `json:"finishedAt,omitempty"`
}

// task is a fully resolved compilation: inputs plus the content-addressed
// cache key. newTask builds every task, so backend is never nil.
type task struct {
	label   string // benchmark name or request label, informational only
	hash    string // circuit fingerprint
	key     string // cache key
	class   string // request class: ClassCompile or ClassSimulate
	prio    admission.Priority
	backend compiler.Backend
	target  compiler.Target
	circ    *circuit.Circuit
	opts    compiler.Options
	// emit, when set, streams sampled shot records as they are produced
	// (the /v1/sample?stream=1 path). Streaming outcomes bypass the result
	// cache: the records only exist on the live connection.
	emit func([]noise.ShotRecord) error
}

// job is the internal record behind a Job snapshot.
type job struct {
	id     string
	task   task
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed exactly once, by finish

	// trace is the job's request-scoped span tree; its root spans the whole
	// job and every instrumented stage (queue wait, cache lookup, pipeline
	// passes, noise trajectory) hangs off it via j.ctx.
	trace *obs.Trace

	mu         sync.Mutex
	state      State
	finalized  bool // finish already ran; later finish/run calls are no-ops
	out        *outcome
	cached     bool
	submitted  time.Time
	finishedAt time.Time
	// tracedJSON memoises the cached envelope bytes with this job's trace
	// spliced in; built lazily on first snapshot that carries a result, so
	// the in-process metrics path never pays for it.
	tracedJSON []byte
}

// Stats is the /v1/stats payload: queue, worker, cache, and per-pass
// pipeline counters.
type Stats struct {
	Workers       int `json:"workers"` // live workers (including draining retirees)
	WorkersBusy   int `json:"workersBusy"`
	WorkersTarget int `json:"workersTarget"` // adaptive-pool target
	WorkersMin    int `json:"workersMin"`
	WorkersMax    int `json:"workersMax"`
	QueueCapacity int `json:"queueCapacity"` // per priority class
	QueueDepth    int `json:"queueDepth"`    // both classes combined
	// QueueDepthInteractive/Batch split QueueDepth by priority class.
	QueueDepthInteractive int    `json:"queueDepthInteractive"`
	QueueDepthBatch       int    `json:"queueDepthBatch"`
	Submitted             uint64 `json:"submitted"`
	Completed             uint64 `json:"completed"`
	Failed                uint64 `json:"failed"`
	Cancelled             uint64 `json:"cancelled"`
	Rejected              uint64 `json:"rejected"`
	// Panics counts backend panics recovered by workers (the jobs failed;
	// the workers survived).
	Panics        uint64  `json:"panics"`
	CacheHits     uint64  `json:"cacheHits"`
	CacheMisses   uint64  `json:"cacheMisses"`
	CacheEntries  int     `json:"cacheEntries"`
	UptimeSeconds float64 `json:"uptimeSeconds"`
	// Admission reports the control loop's latest model fit and shed state;
	// nil when admission control is disabled.
	Admission *AdmissionStats `json:"admission,omitempty"`
	// PassSeconds is the cumulative wall time each compile-pipeline pass
	// consumed across every non-cached compilation this engine executed,
	// keyed by pass name; PassRuns counts those executions. Together they
	// show where compile time goes fleet-wide (avg = seconds/runs).
	PassSeconds map[string]float64 `json:"passSeconds,omitempty"`
	PassRuns    uint64             `json:"passRuns,omitempty"`
	// Latencies summarises end-to-end job latency per "backend/class"
	// (e.g. "atomique/compile"): count, sum, and p50/p90/p99 estimated from
	// the same log-bucketed histograms GET /metrics exposes.
	Latencies map[string]obs.Quantiles `json:"latencies,omitempty"`
	// Traces reports the tiered trace ring: adds, pins, sampling drops, and
	// per-segment evictions.
	Traces obs.TraceStoreStats `json:"traces"`
	// SLO is every objective's burn-rate evaluation (the GET /v1/slo
	// payload) and SLOWorst the most severe state across them.
	SLO      []slo.ObjectiveStatus `json:"slo,omitempty"`
	SLOWorst string                `json:"sloWorst,omitempty"`
	// Bundles counts diagnostic bundles held by the flight recorder; -1
	// when the recorder is disabled.
	Bundles int `json:"bundles"`
}

// AdmissionStats is the /v1/stats view of the admission controller: the
// fitted saturation model and the current gate state.
type AdmissionStats struct {
	ArrivalRatePerSecond float64 `json:"arrivalRatePerSecond"`
	ServiceSecondsPerJob float64 `json:"serviceSecondsPerJob"`
	Utilization          float64 `json:"utilization"`
	// PredictedInteractiveWaitSeconds/PredictedBatchWaitSeconds are the
	// queue waits a new submission of each class would see.
	PredictedInteractiveWaitSeconds float64 `json:"predictedInteractiveWaitSeconds"`
	PredictedBatchWaitSeconds       float64 `json:"predictedBatchWaitSeconds"`
	// Saturation is predicted batch wait over the queue-wait objective
	// (>1 means batch traffic is shedding).
	Saturation      float64 `json:"saturation"`
	ShedInteractive bool    `json:"shedInteractive"`
	ShedBatch       bool    `json:"shedBatch"`
	// ShedInteractiveTotal/ShedBatchTotal count admission sheds per class
	// since engine start (queue-full rejections are counted separately
	// under "rejected").
	ShedInteractiveTotal uint64 `json:"shedInteractiveTotal"`
	ShedBatchTotal       uint64 `json:"shedBatchTotal"`
}

// compileFunc is the engine's compilation seam; tests substitute it to
// exercise queueing and cancellation without real compilations.
type compileFunc func(ctx context.Context, b compiler.Backend, tgt compiler.Target, circ *circuit.Circuit, opts compiler.Options) (*compiler.Result, error)

func defaultCompile(ctx context.Context, b compiler.Backend, tgt compiler.Target, circ *circuit.Circuit, opts compiler.Options) (*compiler.Result, error) {
	return b.Compile(ctx, tgt, circ, opts)
}

// maxTrackedJobs bounds the finished-job history kept for GET /v1/jobs/{id}.
const maxTrackedJobs = 4096

// slowTailMinSamples is the histogram mass required before a success is
// compared to the class p99 for slow-tail trace pinning; with fewer samples
// the estimate is noise and every other job would "exceed" it.
const slowTailMinSamples = 100

// Engine is the compile service: priority queues, an adaptive worker pool,
// cache, job registry, and the admission control loop.
type Engine struct {
	cfg Config
	// queues are the bounded per-priority job queues, indexed by
	// admission.Priority; workers drain interactive strictly first.
	queues [2]chan *job
	cache  *lruCache[string, *outcome]
	// fpMemo memoises fingerprints by circuit pointer for circuits that are
	// immutable once submitted: the registry benchmarks, and the few circuit
	// objects in-process callers resubmit thousands of times.
	fpMemo  *lruCache[*circuit.Circuit, string]
	compile compileFunc
	// tel bundles the engine's observability surface: metrics registry
	// (GET /metrics), finished-trace ring (GET /v1/traces), and logger.
	tel *telemetry
	// busy counts workers currently executing a job (workers_busy gauge).
	busy atomic.Int64
	// busySeconds accumulates wall time workers spent running jobs and
	// executed counts those runs; their ratio is the mean service time the
	// admission controller's saturation model fits.
	busySeconds obs.Counter
	executed    atomic.Uint64
	// passRuns counts executed compilations that reported pass timings
	// (the /v1/stats PassRuns field; no metric series mirrors it).
	passRuns atomic.Uint64

	// poolMu guards quits, the adaptive pool's per-worker retirement
	// channels; closing one retires that worker after its current job.
	poolMu        sync.Mutex
	quits         []chan struct{}
	workersTarget atomic.Int64
	workersLive   atomic.Int64

	// ctrl is the admission control loop (nil when disabled); admTick
	// holds its latest tick for gauges and /v1/stats.
	ctrl    *admission.Controller
	admTick atomic.Pointer[admission.Tick]
	// slo is the burn-rate engine behind GET /v1/slo; recorder is the flight
	// recorder behind GET /v1/debug/bundles (nil when Bundles.Dir is unset).
	slo      *slo.Engine
	recorder *obs.Recorder

	// benchInfos is the /v1/benchmarks payload, computed once at engine
	// construction (the registry is immutable after init).
	benchInfos []benchmarkInfo

	ctx    context.Context
	stop   context.CancelFunc
	wg     sync.WaitGroup
	start  time.Time
	seq    atomic.Uint64
	closed atomic.Bool
	// closeMu orders submissions against Close: a submitter registers in
	// inFlight under the read lock while the engine is open; Close flips
	// closed under the write lock and then waits for inFlight, so every
	// admitted job is either run by a worker or caught by Close's drain.
	closeMu  sync.RWMutex
	inFlight sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*job
	finished []string // FIFO of finished job IDs, for pruning
}

// fpMemoLimit bounds the fingerprint memo. Each entry is a pointer and a
// 64-hex string; the limit exists because long-running in-process callers
// submitting a stream of fresh circuits would otherwise grow the memo (and
// pin the circuits themselves) without bound.
const fpMemoLimit = 512

// New starts an engine with cfg's worker pool running.
func New(cfg Config) *Engine { return newEngine(cfg, defaultCompile) }

// newEngine starts an engine with an explicit compilation backend (the
// backend must be fixed before the workers start; tests inject stubs here).
func newEngine(cfg Config, fn compileFunc) *Engine {
	cfg = cfg.withDefaults()
	ctx, stop := context.WithCancel(context.Background())
	e := &Engine{
		cfg:     cfg,
		cache:   newLRUCache[string, *outcome](cfg.CacheSize),
		fpMemo:  newLRUCache[*circuit.Circuit, string](fpMemoLimit),
		compile: fn,
		ctx:     ctx,
		stop:    stop,
		start:   time.Now(),
		jobs:    make(map[string]*job),
	}
	for i := range e.queues {
		e.queues[i] = make(chan *job, cfg.QueueSize)
	}
	e.tel = newTelemetry(e, cfg.Logger, cfg.TraceBuffer)
	e.tel.traces.SetSampleRate(cfg.TraceSample)
	e.benchInfos = computeBenchmarkInfos()
	if cfg.Bundles.Dir != "" {
		rec, err := newRecorder(e)
		if err != nil {
			// A broken bundle directory degrades to "recorder disabled"
			// rather than refusing to serve compiles.
			e.tel.log.Error("flight recorder disabled", "dir", cfg.Bundles.Dir, "error", err.Error())
		} else {
			e.recorder = rec
		}
	}
	e.poolMu.Lock()
	e.workersTarget.Store(int64(cfg.Workers))
	e.spawnLocked(cfg.Workers)
	e.poolMu.Unlock()
	if cfg.Admission.Enabled {
		e.ctrl = admission.New(cfg.Admission, e, e, e.observeTick)
		e.ctrl.Start()
	}
	e.startSLO()
	return e
}

// Close stops the admission controller and the workers, cancels running
// jobs, and fails queued ones.
func (e *Engine) Close() {
	e.closeMu.Lock()
	already := e.closed.Swap(true)
	e.closeMu.Unlock()
	if already {
		return
	}
	if e.ctrl != nil {
		e.ctrl.Stop() // no more Resize calls from the control loop
	}
	if e.slo != nil {
		e.slo.Stop() // no more evaluation ticks or recorder triggers
	}
	// Let any in-flight Resize finish its spawns before waiting on the
	// pool; later Resize calls observe closed and no-op.
	e.poolMu.Lock()
	e.poolMu.Unlock() //nolint:staticcheck // empty critical section is the barrier
	e.stop()
	e.wg.Wait()
	e.inFlight.Wait()
	// Workers are gone and no submitter is mid-enqueue; drain jobs still
	// sitting in the queues.
	for _, q := range e.queues {
		for drained := false; !drained; {
			select {
			case j := <-q:
				e.finish(j, &outcome{err: fmt.Errorf("service: %w", ErrClosed)}, false)
			default:
				drained = true
			}
		}
	}
	if e.recorder != nil {
		e.recorder.Wait() // let an in-flight bundle capture complete
	}
}

// resolve turns a Request into a runnable task, reporting client errors as
// *RequestError.
func (e *Engine) resolve(req Request) (task, error) {
	var circ *circuit.Circuit
	var hash string
	label := req.Benchmark
	switch {
	case req.Benchmark != "" && req.QASM != "":
		return task{}, &RequestError{Msg: "request must set either benchmark or qasm, not both"}
	case req.Benchmark != "":
		b, ok := bench.ByName(req.Benchmark)
		if !ok {
			return task{}, &RequestError{Msg: fmt.Sprintf("unknown benchmark %q (see GET /v1/benchmarks)", req.Benchmark)}
		}
		circ = b.Circ
		label = b.Name
		// Registry circuits are shared immutable singletons, so the
		// pointer-keyed memo spares hashing tens of thousands of gates per
		// request.
		hash = e.fpMemo.memo(circ, (*circuit.Circuit).Fingerprint)
	case req.QASM != "":
		parsed, err := qasm.ParseString(req.QASM)
		if err != nil {
			re := &RequestError{Msg: err.Error()}
			var pe *qasm.ParseError
			if errors.As(err, &pe) {
				re.Line = pe.Line
			}
			return task{}, re
		}
		circ = parsed
		label = "qasm"
		hash = circ.Fingerprint()
	default:
		return task{}, &RequestError{Msg: "request must set benchmark or qasm"}
	}

	backendName := req.Backend
	if backendName == "" {
		backendName = DefaultBackend
	}
	be, ok := compiler.Lookup(backendName)
	if !ok {
		return task{}, &RequestError{Msg: fmt.Sprintf("unknown backend %q (see GET /v1/backends; registered: %v)",
			backendName, compiler.Names())}
	}

	prio, err := parsePriority(req.Priority)
	if err != nil {
		return task{}, err
	}

	tgt, err := e.resolveTarget(be, req, circ)
	if err != nil {
		return task{}, err
	}

	if req.Budget < 0 {
		return task{}, &RequestError{Msg: "budget must be non-negative seconds"}
	}
	if req.Shots < 0 || req.Shots > compiler.MaxNoisyShots {
		return task{}, &RequestError{Msg: fmt.Sprintf("shots must be in 0..%d", compiler.MaxNoisyShots)}
	}
	if req.NoiseScale < 0 || req.Noise1Q < 0 || req.Noise1Q > 1 || req.Noise2Q < 0 || req.Noise2Q > 1 {
		return task{}, &RequestError{Msg: "noiseScale must be non-negative and noise1Q/noise2Q must be probabilities in [0,1]"}
	}
	if !noise.ValidEngine(req.Engine) {
		return task{}, &RequestError{Msg: fmt.Sprintf("unknown engine %q (valid: %q, %q, %q, or empty for auto)",
			req.Engine, noise.EngineAuto, noise.EngineDense, noise.EngineStab)}
	}
	if req.Shots == 0 && (req.NoiseSeed != 0 || req.NoiseScale != 0 || req.Noise1Q != 0 || req.Noise2Q != 0 || req.Engine != "") {
		return task{}, &RequestError{Msg: "noise options (noiseSeed, noiseScale, noise1Q, noise2Q, engine) need shots > 0"}
	}
	if req.Sample && req.Shots == 0 {
		return task{}, &RequestError{Msg: "sample needs shots > 0"}
	}
	if req.ShotOffset != 0 && !req.Sample {
		return task{}, &RequestError{Msg: "shotOffset applies to sampling only (set sample=true or use POST /v1/sample)"}
	}
	if req.ShotOffset < 0 {
		return task{}, &RequestError{Msg: "shotOffset must be non-negative"}
	}
	if req.Sample && req.ShotOffset+int64(req.Shots) > noise.MaxShotIndex {
		return task{}, &RequestError{Msg: fmt.Sprintf("shot range [%d, %d) exceeds the global shot-index cap %d",
			req.ShotOffset, req.ShotOffset+int64(req.Shots), noise.MaxShotIndex)}
	}
	// A witness wider than the selected trajectory engine's register cap is
	// guaranteed to fail after the compile — reject it up front instead of
	// burning a worker on it. WitnessWidth accounts for declared ancilla
	// overhead (Q-Pilot's flying ancillas). Clifford circuits reach the
	// stabilizer engine (unless the request pins engine=dense), so they are
	// capped at noise.MaxStabQubits instead of the dense wall; backends
	// preserve Cliffordness, which the conformance suite enforces.
	engine := req.Engine
	if req.Shots > 0 {
		w := be.Capabilities().WitnessWidth(circ.N)
		stabEligible := circ.IsClifford() && req.Engine != noise.EngineDense
		if req.Engine == noise.EngineStab && !circ.IsClifford() {
			return task{}, &RequestError{
				Msg: fmt.Sprintf("engine %q needs a Clifford circuit; this circuit has non-Clifford gates (use engine=dense or auto)", noise.EngineStab)}
		}
		if stabEligible && w > noise.MaxStabQubits {
			return task{}, &RequestError{
				Msg: fmt.Sprintf("stabilizer simulation handles witnesses up to %d qubits; backend %q compiles this %d-qubit circuit to a %d-slot witness",
					noise.MaxStabQubits, be.Name(), circ.N, w)}
		}
		if !stabEligible && w > noise.MaxQubits {
			return task{}, &RequestError{
				Msg: fmt.Sprintf("dense noisy simulation handles witnesses up to %d qubits; backend %q compiles this %d-qubit circuit to a %d-slot witness (Clifford circuits dispatch to the stabilizer engine, up to %d qubits)",
					noise.MaxQubits, be.Name(), circ.N, w, noise.MaxStabQubits)}
		}
		// Normalise the engine option to the one that will actually run, so
		// the cache keys on the resolved engine: "auto" (or empty) on a
		// Clifford circuit and an explicit "stab" pin are the same
		// computation and must share one cache entry — while "dense" and
		// "stab" runs of the same circuit never alias.
		if stabEligible {
			engine = noise.EngineStab
		} else {
			engine = noise.EngineDense
		}
	}
	opts := compiler.Options{Seed: req.Seed, SerialRouter: req.Serial, DenseMapper: req.Dense,
		Exact: req.Exact, BudgetSeconds: req.Budget,
		NoisyShots: req.Shots, NoiseSeed: req.NoiseSeed, NoiseScale: req.NoiseScale,
		Noise1Q: req.Noise1Q, Noise2Q: req.Noise2Q, Engine: engine,
		SampleBits: req.Sample, ShotOffset: req.ShotOffset}
	if err := opts.ApplyRelax(req.Relax); err != nil {
		return task{}, &RequestError{Msg: err.Error()}
	}
	// Options outside the backend's declared capabilities (exact/budget on a
	// non-solver backend) are a client error, caught here rather than as a
	// failed job.
	if err := compiler.CheckSupport(be.Name(), be.Capabilities(), tgt, opts); err != nil {
		return task{}, &RequestError{Msg: err.Error()}
	}

	return newTask(label, prio, be, tgt, circ, hash, opts), nil
}

// newTask assembles a runnable task from its compile inputs, deriving the
// content-addressed cache key and the request class from them.
func newTask(label string, prio admission.Priority, be compiler.Backend, tgt compiler.Target,
	circ *circuit.Circuit, hash string, opts compiler.Options) task {
	return task{
		label:   label,
		hash:    hash,
		key:     cacheKey(be.Name(), hash, tgt, opts),
		class:   classOf(opts),
		prio:    prio,
		backend: be,
		target:  tgt,
		circ:    circ,
		opts:    opts,
	}
}

// resolveTarget builds the device description a request compiles against:
// FPQA backends get the engine's default machine with any per-request
// override applied; fixed-topology backends get the requested coupling
// family (or their own default). Options that do not apply to the selected
// backend's target kind are rejected, not silently ignored.
func (e *Engine) resolveTarget(be compiler.Backend, req Request, circ *circuit.Circuit) (compiler.Target, error) {
	caps := be.Capabilities()
	hasMachine := req.SLM != 0 || req.AODs != 0 || req.AODSize != 0
	if req.Zones != nil && !caps.Zoned {
		return compiler.Target{}, &RequestError{
			Msg: fmt.Sprintf("backend %q does not compile zoned machines; zones applies only to zoned backends", be.Name())}
	}
	switch {
	case caps.Zoned:
		if hasMachine || req.Family != "" {
			return compiler.Target{}, &RequestError{
				Msg: fmt.Sprintf("backend %q compiles zoned machines; use zones instead of slm/aods/aodSize/family", be.Name())}
		}
		if req.Zones == nil {
			return compiler.Target{}, nil // backend's default zones, grown to fit
		}
		tgt := compiler.Target{Kind: compiler.KindZoned, Zoned: req.Zones}
		if err := tgt.Validate(); err != nil {
			return compiler.Target{}, &RequestError{Msg: err.Error()}
		}
		if circ.N > req.Zones.Geometry.StorageCapacity() {
			return compiler.Target{}, &RequestError{
				Msg: fmt.Sprintf("circuit needs %d qubits, storage zone has %d sites",
					circ.N, req.Zones.Geometry.StorageCapacity())}
		}
		return tgt, nil
	case caps.FPQA:
		if req.Family != "" {
			return compiler.Target{}, &RequestError{
				Msg: fmt.Sprintf("backend %q compiles FPQA machines; family applies only to fixed-topology backends", be.Name())}
		}
		cfg := e.cfg.Hardware
		if req.SLM < 0 || req.AODs < 0 || req.AODSize < 0 {
			// Zero means "keep the engine default", so only negatives are out.
			return compiler.Target{}, &RequestError{Msg: "machine override values (slm, aods, aodSize) must be non-negative"}
		}
		if hasMachine {
			// Partial overrides keep the engine default for unset dimensions
			// (including a non-square configured SLM); overriding aodSize makes
			// the AOD arrays homogeneous at that size.
			slmSpec := cfg.SLM
			if req.SLM > 0 {
				slmSpec = hardware.ArraySpec{Rows: req.SLM, Cols: req.SLM}
			}
			var aodSpec hardware.ArraySpec
			if len(cfg.AODs) > 0 {
				aodSpec = cfg.AODs[0]
			}
			if req.AODSize > 0 {
				aodSpec = hardware.ArraySpec{Rows: req.AODSize, Cols: req.AODSize}
			}
			aods := len(cfg.AODs)
			if req.AODs > 0 {
				aods = req.AODs
			}
			if !machineWithinBound(slmSpec, aodSpec, aods) {
				return compiler.Target{}, &RequestError{Msg: fmt.Sprintf(
					"machine override exceeds %d trap sites (slm*slm + aods*aodSize*aodSize)", maxMachineSites)}
			}
			cfg = hardware.Config{SLM: slmSpec, Params: cfg.Params}
			for i := 0; i < aods; i++ {
				cfg.AODs = append(cfg.AODs, aodSpec)
			}
		}
		if err := cfg.Validate(); err != nil {
			return compiler.Target{}, &RequestError{Msg: err.Error()}
		}
		// Site capacity only bounds backends that place circuit qubits onto
		// the machine's trap sites (routing backends). Q-Pilot-style
		// backends take the target solely as a parameter source and lay out
		// their own geometry, so the comparison would be wrong for them.
		if caps.Routes && circ.N > cfg.Capacity() {
			return compiler.Target{}, &RequestError{
				Msg: fmt.Sprintf("circuit needs %d qubits, machine has %d sites", circ.N, cfg.Capacity()),
			}
		}
		return compiler.FPQA(cfg), nil
	case caps.Coupling:
		if hasMachine {
			return compiler.Target{}, &RequestError{
				Msg: fmt.Sprintf("backend %q compiles fixed topologies; slm/aods/aodSize apply only to FPQA backends", be.Name())}
		}
		if req.Family == "" {
			return compiler.Target{}, nil // backend's canonical device
		}
		tgt := compiler.Coupling(req.Family, 0)
		if err := tgt.Validate(); err != nil {
			return compiler.Target{}, &RequestError{Msg: err.Error()}
		}
		return tgt, nil
	default:
		return compiler.Target{}, &RequestError{Msg: fmt.Sprintf("backend %q declares no supported target kind", be.Name())}
	}
}

// maxMachineSites bounds the trap sites (SLM plus every AOD) of a
// per-request machine override: a 256x256 SLM's worth, far beyond the
// paper's 10x10 + 2x(10x10) default. It is checked before the override is
// built, so an absurd aods or aodSize cannot make resolve allocate one spec
// per array on the request goroutine, nor reach a backend's site tables.
const maxMachineSites = 1 << 16

// machineWithinBound reports whether an SLM of slm plus aods arrays of aod
// stays within maxMachineSites, without overflowing on any non-negative
// input. Each AOD counts as at least one site, which also bounds the array
// count when the default machine has no AOD to copy.
func machineWithinBound(slm, aod hardware.ArraySpec, aods int) bool {
	within := func(a, b, limit int) bool { return a == 0 || b <= limit/a }
	if !within(slm.Rows, slm.Cols, maxMachineSites) || !within(aod.Rows, aod.Cols, maxMachineSites) {
		return false
	}
	budget := maxMachineSites - slm.Rows*slm.Cols
	return within(aods, max(aod.Rows*aod.Cols, 1), budget)
}

// cacheKey derives the content-addressed key: backend name and circuit
// fingerprint plus the canonical JSON of the target and compile options
// (which include the seed). Deterministic struct-field order makes the key
// stable; the backend name guarantees two backends never alias an entry.
func cacheKey(backend, fingerprint string, tgt compiler.Target, opts compiler.Options) string {
	h := sha256.New()
	io.WriteString(h, backend)
	io.WriteString(h, "\x00")
	io.WriteString(h, fingerprint)
	enc := json.NewEncoder(h)
	if err := enc.Encode(tgt); err != nil {
		panic(fmt.Sprintf("service: encode target: %v", err))
	}
	if err := enc.Encode(opts); err != nil {
		panic(fmt.Sprintf("service: encode options: %v", err))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// newJob registers a queued job for a resolved task. callerCtx may carry a
// client-chosen trace ID (X-Trace-Id, validated by the HTTP layer); otherwise
// one is minted. The job's own context carries the trace root span, so every
// instrumentation site downstream (cache lookup, pipeline passes, noise
// trajectory) attaches to it without further plumbing.
func (e *Engine) newJob(callerCtx context.Context, t task) *job {
	tr := obs.NewTrace(obs.TraceIDFromContext(callerCtx), "job")
	tr.Root.SetAttr("class", t.class)
	tr.Root.SetAttr("benchmark", t.label)
	tr.Root.SetAttr("backend", t.backend.Name())
	ctx, cancel := context.WithCancel(obs.ContextWithSpan(e.ctx, tr.Root))
	j := &job{
		id:        fmt.Sprintf("job-%06d", e.seq.Add(1)),
		task:      t,
		ctx:       ctx,
		cancel:    cancel,
		done:      make(chan struct{}),
		trace:     tr,
		state:     StateQueued,
		submitted: time.Now(),
	}
	tr.Root.SetAttr("job", j.id)
	e.mu.Lock()
	e.jobs[j.id] = j
	e.mu.Unlock()
	return j
}

// Submit resolves and enqueues a job without waiting for it, failing fast
// with an *OverloadedError (a 429 with computed Retry-After at the HTTP
// layer) when the admission controller sheds the request's class or its
// queue is at capacity. ctx is consulted only for a request-scoped trace ID
// (obs.ContextWithTraceID); it does not bound the job's lifetime.
func (e *Engine) Submit(ctx context.Context, req Request) (*Job, error) {
	t, err := e.resolve(req)
	if err != nil {
		return nil, err
	}
	j, err := e.submitResolved(ctx, t)
	if err != nil {
		return nil, err
	}
	return e.snapshot(j), nil
}

// submitResolved enqueues an already-resolved task through the admission
// gate, fail-fast. The streaming sample handler uses it directly so it can
// attach its emit callback to the task before submission.
func (e *Engine) submitResolved(ctx context.Context, t task) (*job, error) {
	return e.enqueue(ctx, t, false)
}

// submitBlocking enqueues a job, waiting for queue space until ctx or the
// engine is done. The batch endpoint and in-process callers use it so a
// burst larger than the queue is flow-controlled instead of rejected.
func (e *Engine) submitBlocking(ctx context.Context, t task) (*job, error) {
	return e.enqueue(ctx, t, true)
}

// enqueue registers a job for t and offers it to its priority queue. A
// fail-fast submission (block unset) first passes the admission gate and is
// rejected when its queue is full; a blocking one waits for queue space.
func (e *Engine) enqueue(ctx context.Context, t task, block bool) (*job, error) {
	e.closeMu.RLock()
	if e.closed.Load() {
		e.closeMu.RUnlock()
		return nil, ErrClosed
	}
	e.inFlight.Add(1)
	e.closeMu.RUnlock()
	defer e.inFlight.Done()
	if !block {
		if dec := e.admit(t.prio); !dec.Admit {
			return nil, e.shed(ctx, t, dec)
		}
	}
	j := e.newJob(ctx, t)
	select {
	case e.queues[t.prio] <- j:
	default:
		if !block {
			e.reject(t, admissionQueueFull, "job rejected: queue full")
			e.dropJob(j, "rejected")
			return nil, &OverloadedError{RetryAfter: e.retryAfterEstimate(),
				Reason: t.prio.String() + " queue full", QueueFull: true}
		}
		select {
		case e.queues[t.prio] <- j:
		case <-ctx.Done():
			e.dropJob(j, "abandoned")
			return nil, ctx.Err()
		case <-e.ctx.Done():
			e.dropJob(j, "closed")
			return nil, ErrClosed
		}
	}
	e.tel.admissionDecisions.With(t.prio.String(), admissionAdmitted).Inc()
	e.logJob(j, "job queued")
	return j, nil
}

// shed counts and logs an admission shed and returns its error. No job is
// minted for a shed, but a minimal root-only trace is pinned into the ring's
// reserved segment — shed storms are exactly the traffic a diagnostic bundle
// needs to show, and a storm of successes must not evict them.
func (e *Engine) shed(ctx context.Context, t task, dec admission.Decision) error {
	e.reject(t, admissionShed, "job shed by admission control", "retryAfter", dec.RetryAfter.Seconds())
	tr := obs.NewTrace(obs.TraceIDFromContext(ctx), "shed")
	tr.Root.SetAttr("state", "shed")
	tr.Root.SetAttr("backend", t.backend.Name())
	tr.Root.SetAttr("class", t.class)
	tr.Root.SetAttr("priority", t.prio.String())
	tr.Root.SetAttr("benchmark", t.label)
	tr.Root.SetAttr("reason", dec.Reason)
	tr.Root.SetAttr("retryAfterSeconds", strconv.FormatFloat(dec.RetryAfter.Seconds(), 'g', 4, 64))
	tr.Root.End()
	e.tel.traces.AddPinned(tr)
	return &OverloadedError{RetryAfter: dec.RetryAfter, Reason: dec.Reason}
}

// reject counts a fail-fast rejection (an admission shed or a full queue)
// under its admission decision and as a rejected request, and logs it.
func (e *Engine) reject(t task, decision, msg string, extra ...any) {
	e.tel.admissionDecisions.With(t.prio.String(), decision).Inc()
	e.tel.requests.With(t.backend.Name(), t.class, outcomeRejected).Inc()
	e.tel.log.Warn(msg, append([]any{"backend", t.backend.Name(), "class", t.class,
		"priority", t.prio.String(), "benchmark", t.label}, extra...)...)
}

// logJob emits one structured lifecycle event correlated by trace ID.
func (e *Engine) logJob(j *job, msg string, extra ...any) {
	args := append([]any{
		"job", j.id, "traceId", j.trace.ID,
		"backend", j.task.backend.Name(), "class", j.task.class,
		"benchmark", j.task.label,
	}, extra...)
	e.tel.log.Info(msg, args...)
}

// dropJob unregisters a job that never entered a queue, closing out its
// trace into the ring's pinned segment: rejections are overload evidence,
// which a flood of ordinary successes must not evict.
func (e *Engine) dropJob(j *job, state string) {
	j.cancel()
	j.trace.Root.SetAttr("state", state)
	j.trace.Root.End()
	e.tel.traces.AddPinned(j.trace)
	e.mu.Lock()
	delete(e.jobs, j.id)
	e.mu.Unlock()
}

// Compile is the synchronous path: resolve, enqueue (fail-fast), await. If
// the caller gives up before completion, the job is cancelled.
func (e *Engine) Compile(ctx context.Context, req Request) (*Job, error) {
	t, err := e.resolve(req)
	if err != nil {
		return nil, err
	}
	j, err := e.submitResolved(ctx, t)
	if err != nil {
		return nil, err
	}
	if err := e.await(ctx, j); err != nil {
		return nil, err
	}
	return e.snapshot(j), nil
}

// await blocks until j finishes or ctx is done. A caller that gives up
// cancels the job the way Cancel does and gets ctx.Err().
func (e *Engine) await(ctx context.Context, j *job) error {
	select {
	case <-j.done:
		return nil
	case <-ctx.Done():
		e.cancelJob(j) //nolint:errcheck // a job that finished meanwhile needs no cancel
		return ctx.Err()
	}
}

// CompileMetrics is the in-process batch path: it runs one compilation of
// the default (atomique) backend through the queue, worker pool, and cache,
// returning the metrics record. cmd/experiments points the figure drivers
// here so repeated sweeps over identical (circuit, config, options) triples
// hit the cache. Jobs enter at batch priority: experiment sweeps must queue
// behind interactive compiles, not starve them.
func (e *Engine) CompileMetrics(ctx context.Context, cfg hardware.Config, circ *circuit.Circuit, opts compiler.Options) (metrics.Compiled, error) {
	be, ok := compiler.Lookup(DefaultBackend)
	if !ok {
		return metrics.Compiled{}, fmt.Errorf("service: default backend %q not registered", DefaultBackend)
	}
	t := newTask("in-process", admission.Batch, be, compiler.FPQA(cfg), circ,
		e.fpMemo.memo(circ, (*circuit.Circuit).Fingerprint), opts)
	j, err := e.submitBlocking(ctx, t)
	if err != nil {
		return metrics.Compiled{}, err
	}
	if err := e.await(ctx, j); err != nil {
		return metrics.Compiled{}, err
	}
	// finish wrote j.out before closing j.done and never writes it again.
	if j.out.err != nil {
		return metrics.Compiled{}, j.out.err
	}
	return j.out.metrics, nil
}

// JobByID returns a job snapshot.
func (e *Engine) JobByID(id string) (*Job, bool) {
	e.mu.Lock()
	j, ok := e.jobs[id]
	e.mu.Unlock()
	if !ok {
		return nil, false
	}
	return e.snapshot(j), true
}

// Cancel requests cancellation of a queued or running job. It reports false
// when the job is unknown and an error when it already finished.
func (e *Engine) Cancel(id string) (bool, error) {
	e.mu.Lock()
	j, ok := e.jobs[id]
	e.mu.Unlock()
	if !ok {
		return false, nil
	}
	return true, e.cancelJob(j)
}

// cancelJob cancels j's context and, when j is still queued, finishes it at
// once so callers observe "cancelled" rather than a stale "queued"; the
// worker that later pops it finds it finalized and skips it. A running job
// finishes when its backend observes the cancellation. The context is
// cancelled before the state is read, and run checks the context under the
// lock it marks the job running with, so a job finished here never runs.
func (e *Engine) cancelJob(j *job) error {
	j.cancel()
	j.mu.Lock()
	finalized, state := j.finalized, j.state
	j.mu.Unlock()
	if finalized {
		return fmt.Errorf("service: job %s already %s", j.id, state)
	}
	if state == StateQueued {
		e.finish(j, &outcome{err: fmt.Errorf("service: compilation cancelled: %w", context.Canceled)}, false)
	}
	return nil
}

// Stats returns a snapshot of the engine state. Its request, cache,
// admission, panic and pass counters are read from the metrics registry, so
// /v1/stats and GET /metrics always report the same totals.
func (e *Engine) Stats() Stats {
	passSeconds := make(map[string]float64)
	e.tel.passSeconds.Each(func(labels []string, c *obs.Counter) {
		passSeconds[labels[0]] = c.Value()
	})
	latencies := make(map[string]obs.Quantiles)
	e.tel.latency.Each(func(labels []string, h *obs.Histogram) {
		latencies[labels[0]+"/"+labels[1]] = h.Quantiles()
	})
	requests, decisions := e.tel.requests, e.tel.admissionDecisions
	st := Stats{
		PassSeconds:           passSeconds,
		PassRuns:              e.passRuns.Load(),
		Latencies:             latencies,
		Workers:               int(e.workersLive.Load()),
		WorkersBusy:           int(e.busy.Load()),
		WorkersTarget:         int(e.workersTarget.Load()),
		WorkersMin:            e.cfg.WorkersMin,
		WorkersMax:            e.cfg.WorkersMax,
		QueueCapacity:         e.cfg.QueueSize,
		QueueDepthInteractive: len(e.queues[admission.Interactive]),
		QueueDepthBatch:       len(e.queues[admission.Batch]),
		Submitted:             counterTotal(decisions, "", admissionAdmitted),
		Completed:             counterTotal(requests, "", "", outcomeDone),
		Failed:                counterTotal(requests, "", "", outcomeFailed),
		Cancelled:             counterTotal(requests, "", "", outcomeCancelled),
		Rejected:              counterTotal(requests, "", "", outcomeRejected),
		Panics:                uint64(e.tel.panicsTotal.Value()),
		CacheHits:             counterTotal(e.tel.cacheEvents, cacheHit),
		CacheMisses:           counterTotal(e.tel.cacheEvents, cacheMiss),
		CacheEntries:          e.cache.len(),
		UptimeSeconds:         time.Since(e.start).Seconds(),
		Traces:                e.tel.traces.Stats(),
		Bundles:               -1,
	}
	st.QueueDepth = st.QueueDepthInteractive + st.QueueDepthBatch
	if e.slo != nil {
		st.SLO = e.slo.Status()
		st.SLOWorst = e.slo.WorstState().String()
	}
	if e.recorder != nil {
		st.Bundles = len(e.recorder.List())
	}
	if e.ctrl != nil {
		t := e.ctrl.Last()
		st.Admission = &AdmissionStats{
			ArrivalRatePerSecond:            t.Lambda,
			ServiceSecondsPerJob:            t.ServiceSeconds,
			Utilization:                     t.Utilization,
			PredictedInteractiveWaitSeconds: t.InteractiveWait.Seconds(),
			PredictedBatchWaitSeconds:       t.BatchWait.Seconds(),
			Saturation:                      t.Saturation,
			ShedInteractive:                 t.ShedInteractive,
			ShedBatch:                       t.ShedBatch,
			ShedInteractiveTotal:            counterTotal(decisions, admission.Interactive.String(), admissionShed),
			ShedBatchTotal:                  counterTotal(decisions, admission.Batch.String(), admissionShed),
		}
	}
	return st
}

// run executes one job: skip if already cancelled, then compute through the
// cache (coalescing with any in-flight identical computation). The busy
// gauge and service-time accounting are released before the job finishes,
// so a caller that sees the job done also sees its worker idle, and a panic
// that escapes the backend-level recovery in execute (engine bookkeeping,
// not backend code) still fails only this job — the worker survives.
func (e *Engine) run(j *job) {
	j.mu.Lock()
	if j.finalized {
		j.mu.Unlock()
		return
	}
	if err := j.ctx.Err(); err != nil {
		j.mu.Unlock()
		e.finish(j, &outcome{err: fmt.Errorf("service: compilation cancelled: %w", err)}, false)
		return
	}
	j.state = StateRunning
	waited := time.Since(j.submitted)
	j.mu.Unlock()
	e.tel.queueWait.ObserveExemplar(waited.Seconds(), j.trace.ID)
	j.trace.Root.Record("queue.wait", j.submitted, waited)
	e.busy.Add(1)
	start := time.Now()
	var out *outcome
	var cached bool
	defer func() {
		e.busy.Add(-1)
		e.busySeconds.Add(time.Since(start).Seconds())
		e.executed.Add(1)
		if r := recover(); r != nil {
			e.recordPanic("worker", r)
			out, cached = &outcome{err: fmt.Errorf("service: worker panic: %v", r)}, false
		}
		e.finish(j, out, cached)
	}()
	out, cached = e.compute(j.ctx, j.task)
}

// compute returns the outcome for a task, via the cache when possible. The
// first requester of a key owns the compilation; concurrent requesters wait
// on its entry (counted as cache hits — no duplicate work happens). If an
// owner is cancelled mid-compile, a live waiter retries and takes ownership.
func (e *Engine) compute(ctx context.Context, t task) (*outcome, bool) {
	// Streaming sample jobs bypass the cache entirely: their product is the
	// live record stream, which only exists on this request's connection —
	// neither serving a histogram from cache nor caching this run's would be
	// the requested computation.
	if t.emit != nil {
		return e.execute(ctx, t), false
	}
	sp := obs.SpanFromContext(ctx)
	for {
		lookupStart := time.Now()
		ent, hit := e.cache.getOrReserve(t.key)
		if !hit {
			e.tel.cacheEvents.With(cacheMiss).Inc()
			if c := sp.Record("cache.lookup", lookupStart, time.Since(lookupStart)); c != nil {
				c.SetAttr("outcome", cacheMiss)
			}
			out := e.execute(ctx, t)
			e.cache.fulfill(ent, out)
			if out.err != nil || out.timedOut {
				// Errors are not cached: cancellations are caller-specific,
				// and client errors are caught at resolve time (backend-side
				// size limits still fail the individual job). Timed-out
				// anytime-solver outcomes are not cached either — the
				// timeout reflects wall-clock load, not the inputs, so a
				// later identical request deserves a fresh attempt.
				e.cache.drop(ent)
			}
			return out, false
		}
		// Distinguish a finished-entry hit from coalescing onto an identical
		// in-flight compilation; the coalesce count is in addition to the hit
		// recorded once the entry resolves.
		lookupOutcome := cacheHit
		select {
		case <-ent.done:
		default:
			lookupOutcome = cacheCoalesce
			e.tel.cacheEvents.With(cacheCoalesce).Inc()
		}
		if c := sp.Record("cache.lookup", lookupStart, time.Since(lookupStart)); c != nil {
			c.SetAttr("outcome", lookupOutcome)
		}
		select {
		case <-ent.done:
			out := ent.val
			if out.err != nil && (errors.Is(out.err, context.Canceled) || errors.Is(out.err, context.DeadlineExceeded)) && ctx.Err() == nil {
				continue // the owner was cancelled, not us: take over
			}
			e.tel.cacheEvents.With(cacheHit).Inc()
			return out, true
		case <-ctx.Done():
			return &outcome{err: fmt.Errorf("service: compilation cancelled: %w", ctx.Err())}, false
		}
	}
}

// execute runs the task's backend and packages the result envelope. A panic
// in the backend (or the noise replay) is recovered here — inside the cache
// ownership window, so the reserved entry is still fulfilled and coalesced
// waiters are woken with the failure instead of hanging — and converted into
// a failed outcome; the worker stays alive (atomique_panics_total counts it).
func (e *Engine) execute(ctx context.Context, t task) (out *outcome) {
	// The compile span wraps the backend run; the pipeline runner sees it via
	// ctx and attaches one "pass:<name>" child per pass.
	cspan := obs.SpanFromContext(ctx).StartChild("compile")
	defer func() {
		if r := recover(); r != nil {
			cspan.End()
			e.recordPanic("backend "+t.backend.Name(), r)
			out = &outcome{err: fmt.Errorf("service: backend %s panicked: %v", t.backend.Name(), r)}
		}
	}()
	cctx := ctx
	if cspan != nil {
		cspan.SetAttr("backend", t.backend.Name())
		cctx = obs.ContextWithSpan(ctx, cspan)
	}
	res, err := e.compile(cctx, t.backend, t.target, t.circ, t.opts)
	cspan.End()
	if err != nil {
		return &outcome{err: err}
	}
	e.recordPasses(res.Metrics.Passes)
	// Noisy-shot requests replay the compiled program through the
	// trajectory engine on the same worker; the estimate is deterministic
	// per (options, seed), so the outcome stays cacheable. The trajectory
	// engine hangs its witness-replay and chunk spans off the job root in
	// ctx, as siblings of the compile span.
	if t.emit != nil {
		err = compiler.AttachSample(ctx, t.target, res, t.opts, t.emit)
	} else {
		err = compiler.AttachNoise(ctx, t.target, res, t.opts)
	}
	if err != nil {
		return &outcome{err: err}
	}
	if t.opts.NoisyShots > 0 {
		if t.opts.SampleBits {
			e.tel.sampledShots.Add(float64(t.opts.NoisyShots))
		} else {
			e.tel.shots.Add(float64(t.opts.NoisyShots))
		}
	}
	env := report.NewEnvelope(t.hash, res.Metrics)
	env.Backend = res.Backend
	env.Extra = res.Extra
	env.TimedOut = res.TimedOut
	env.Noise = res.Noise
	env.Sample = res.Sample
	js, err := env.EncodeJSON()
	if err != nil {
		return &outcome{err: fmt.Errorf("service: encode result: %w", err)}
	}
	return &outcome{metrics: res.Metrics, json: js, timedOut: res.TimedOut}
}

// recordPasses folds one compilation's per-pass timings into the engine-wide
// aggregate surfaced by Stats. Cache hits never reach here, so the aggregate
// reflects compute actually spent.
func (e *Engine) recordPasses(passes []metrics.PassTiming) {
	if len(passes) == 0 {
		return
	}
	e.passRuns.Add(1)
	for _, p := range passes {
		e.tel.passSeconds.With(p.Name).Add(p.Seconds)
		e.tel.passLatency.With(p.Name).Observe(p.Seconds)
	}
}

// finish moves a job to its terminal state and wakes waiters. It is
// idempotent: a job cancelled while queued may be finished by Cancel and
// again by the worker that later pops it from the queue.
func (e *Engine) finish(j *job, out *outcome, cached bool) {
	j.mu.Lock()
	if j.finalized {
		j.mu.Unlock()
		return
	}
	j.finalized = true
	outcomeLabel := outcomeDone
	switch {
	case out.err == nil:
		j.state = StateDone
	case errors.Is(out.err, context.Canceled) || errors.Is(out.err, context.DeadlineExceeded):
		j.state, outcomeLabel = StateCancelled, outcomeCancelled
	default:
		j.state, outcomeLabel = StateFailed, outcomeFailed
	}
	// Count the outcome before the terminal state is visible, so whoever
	// observes the state also finds it in /v1/stats and /metrics.
	e.tel.requests.With(j.task.backend.Name(), j.task.class, outcomeLabel).Inc()
	j.out = out
	j.cached = cached
	j.finishedAt = time.Now()
	state := j.state
	elapsed := j.finishedAt.Sub(j.submitted)
	j.mu.Unlock()

	// The latency histogram (successes only — cancellations would skew the
	// percentiles the autoscaler feeds on) carries this job's trace ID as an
	// OpenMetrics exemplar, and is observed before waiters wake for the same
	// reason as the outcome counter. Trace retention is tiered: failures and
	// slow-tail successes (over the class's current p99, once the histogram
	// has enough mass to trust it) pin into the ring's reserved segment;
	// ordinary successes take the sampling coin.
	pin := state == StateFailed
	if state == StateDone {
		// Snapshot before observing so the job is not compared to a p99 that
		// already includes it.
		hist := e.tel.latency.With(j.task.backend.Name(), j.task.class)
		if snap := hist.Snapshot(); snap.Count >= slowTailMinSamples &&
			elapsed.Seconds() > snap.Quantile(0.99) {
			pin = true
			j.trace.Root.SetAttr("slowTail", "over-p99")
		}
		hist.ObserveExemplar(elapsed.Seconds(), j.trace.ID)
	}
	j.cancel() // release the context resources
	close(j.done)

	j.trace.Root.SetAttr("state", string(state))
	j.trace.Root.SetAttr("cached", strconv.FormatBool(cached))
	j.trace.Root.End()
	if pin {
		e.tel.traces.AddPinned(j.trace)
	} else {
		e.tel.traces.Add(j.trace)
	}
	if out.err != nil {
		e.logJob(j, "job finished", "state", state, "seconds", elapsed.Seconds(),
			"cached", cached, "error", out.err.Error())
	} else {
		e.logJob(j, "job finished", "state", state, "seconds", elapsed.Seconds(),
			"cached", cached)
	}

	e.mu.Lock()
	e.finished = append(e.finished, j.id)
	for len(e.finished) > maxTrackedJobs {
		delete(e.jobs, e.finished[0])
		e.finished = e.finished[1:]
	}
	e.mu.Unlock()
}

// snapshot renders a job's externally visible state.
func (e *Engine) snapshot(j *job) *Job {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := &Job{
		ID:          j.id,
		State:       j.state,
		TraceID:     j.trace.ID,
		Benchmark:   j.task.label,
		CircuitHash: j.task.hash,
		Cached:      j.cached,
		Backend:     j.task.backend.Name(),
		SubmittedAt: j.submitted,
	}
	if !j.finishedAt.IsZero() {
		t := j.finishedAt
		v.FinishedAt = &t
	}
	if j.out != nil {
		if j.out.err != nil {
			v.Error = j.out.err.Error()
		} else {
			// Splice this job's trace into the (trace-free, byte-identical)
			// cached envelope, once per job; a splice failure falls back to
			// the raw cached bytes rather than failing the response.
			if j.tracedJSON == nil {
				j.tracedJSON = j.out.json
				if j.finalized {
					if spliced, err := report.WithTrace(j.out.json, j.trace.ID, j.trace.Root.Snapshot()); err == nil {
						j.tracedJSON = spliced
					}
				}
			}
			v.Result = json.RawMessage(j.tracedJSON)
		}
	}
	return v
}
