package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	_ "atomique/internal/compiler/backends" // registers the atomique backend
	"atomique/internal/report"
	"atomique/internal/service"
)

// server is one service engine behind a loopback HTTP server.
type server struct {
	eng    *service.Engine
	http   *httptest.Server
	client *http.Client
}

// startServer stands up service.New behind httptest, optionally wrapping the
// handler, and returns once GET /v1/healthz answers 200, with the time that
// took from service.New on.
func startServer(wrap func(http.Handler) http.Handler) (*server, time.Duration, error) {
	start := time.Now()
	eng := service.New(service.Config{})
	h := eng.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	s := &server{eng: eng, http: httptest.NewServer(h)}
	s.client = &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	resp, err := s.client.Get(s.http.URL + "/v1/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: status %d", resp.StatusCode)
		}
	}
	took := time.Since(start)
	if err != nil {
		s.close()
		return nil, 0, err
	}
	return s, took, nil
}

func (s *server) close() {
	s.client.CloseIdleConnections()
	s.http.Close()
	s.eng.Close()
}

// measureSetup stands the service up n times and returns the set-up times;
// the last server stays up for the run.
func measureSetup(n int, wrap func(http.Handler) http.Handler) (*server, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		s, took, err := startServer(wrap)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, took.Seconds())
		if i == n-1 {
			return s, times, nil
		}
		s.close()
	}
}

// Failure classes.
const (
	failStatus    = "status"
	failTransport = "transport"
	failCheck     = "check"
)

// reply is one completed request as the client saw it.
type reply struct {
	in      input
	latency time.Duration
	bytes   int
	cached  bool
	repeat  bool // a repeat of the previous input, timed for the hit latency only
	env     *report.Envelope
	fail    string // failure class, empty on success
	err     error
}

// jobReply is the part of the service's job JSON the benchmark reads.
type jobReply struct {
	State       string          `json:"state"`
	Cached      bool            `json:"cached"`
	CircuitHash string          `json:"circuitHash"`
	Error       string          `json:"error"`
	Result      json.RawMessage `json:"result"`
}

// send POSTs one input and decodes the result envelope. Headers, when
// given, are added to the request.
func (s *server) send(in input, body []byte, header map[string]string) reply {
	req, err := http.NewRequest(http.MethodPost, s.http.URL+in.path, bytes.NewReader(body))
	if err != nil {
		return reply{in: in, fail: failTransport, err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		req.Header.Set(k, v)
	}
	start := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return reply{in: in, latency: time.Since(start), fail: failTransport, err: err}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := reply{in: in, latency: time.Since(start), bytes: len(data)}
	if err != nil {
		r.fail, r.err = failTransport, err
		return r
	}
	if resp.StatusCode/100 != 2 {
		r.fail, r.err = failStatus, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		return r
	}
	var jr jobReply
	if err := json.Unmarshal(data, &jr); err != nil {
		r.fail, r.err = failCheck, fmt.Errorf("decode job: %w", err)
		return r
	}
	r.cached = jr.Cached
	if jr.State != string(service.StateDone) || jr.Error != "" || len(jr.Result) == 0 {
		r.fail, r.err = failCheck, fmt.Errorf("job state %q: %s", jr.State, jr.Error)
		return r
	}
	var env report.Envelope
	if err := json.Unmarshal(jr.Result, &env); err != nil {
		r.fail, r.err = failCheck, fmt.Errorf("decode envelope: %w", err)
		return r
	}
	r.env = &env
	return r
}

// stats is the part of GET /v1/stats the benchmark reads.
type stats struct {
	CacheHits   uint64 `json:"cacheHits"`
	CacheMisses uint64 `json:"cacheMisses"`
	PassRuns    uint64 `json:"passRuns"`
}

func (s *server) stats() (stats, error) {
	var st stats
	resp, err := s.client.Get(s.http.URL + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// tally counts requests by outcome and failure class.
type tally struct {
	sent, ok int
	failed   map[string]int
	firstErr error
}

func (t *tally) add(r reply) {
	t.sent++
	if r.fail == "" {
		t.ok++
		return
	}
	if t.failed == nil {
		t.failed = map[string]int{}
	}
	t.failed[r.fail]++
	if t.firstErr == nil {
		t.firstErr = fmt.Errorf("%s %s (input %d): %w", r.fail, r.in.path, r.in.index, r.err)
	}
}

func (t *tally) failures() int {
	n := 0
	for _, v := range t.failed {
		n += v
	}
	return n
}

func (t *tally) merge(o tally) {
	t.sent += o.sent
	t.ok += o.ok
	for k, v := range o.failed {
		if t.failed == nil {
			t.failed = map[string]int{}
		}
		t.failed[k] += v
	}
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// closedLoop runs the workload's clients until d has passed, each sending
// its next input only after the previous reply, and calls check on every
// reply (from the client's goroutine; check must be safe for concurrent
// use). On workloads with repeatEvery set, every repeatEvery-th input is
// sent again right after its reply; the repeat must come back from the
// cache with the same canonical envelope. It returns the replies and the
// wall time.
func closedLoop(s *server, w *workload, suite []circuitSrc, first int, d time.Duration, check func(*reply)) ([]reply, time.Duration) {
	var next atomic.Int64
	next.Store(int64(first))
	var mu sync.Mutex
	var out []reply
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for range w.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []reply
			for time.Now().Before(deadline) {
				in := w.at(int(next.Add(1) - 1))
				body := in.body(suite)
				r := s.send(in, body, nil)
				if r.fail == "" {
					check(&r)
				}
				if r.fail == "" && w.repeatEvery > 0 && in.index%w.repeatEvery == 0 {
					h := s.send(in, body, nil)
					h.repeat = true
					if h.fail == "" {
						checkRepeat(&r, &h)
					}
					mine = append(mine, h.strip())
				}
				mine = append(mine, r.strip())
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// checkRepeat demands that a repeated input came back from the cache with
// the canonical envelope of its first reply.
func checkRepeat(first, again *reply) {
	a, errA := canonicalBytes(*first.env)
	b, errB := canonicalBytes(*again.env)
	switch {
	case !again.cached:
		again.fail, again.err = failCheck, fmt.Errorf("repeated input was not served from the cache")
	case errA != nil || errB != nil || !bytes.Equal(a, b):
		again.fail, again.err = failCheck, fmt.Errorf("repeated input got another envelope than its first reply")
	}
}

// strip drops the decoded envelope, keeping what the metrics need.
func (r reply) strip() reply {
	r.env = nil
	return r
}

// heapSampler records the peak heap-in-use reading from runtime/metrics
// until stopped.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func heapInUse() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/unused:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64()
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			h.peak = max(h.peak, heapInUse())
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in bytes.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// runtimeCounters reads the process-wide allocation and GC counters.
func runtimeCounters() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the nearest-rank quantile of v (v is not modified).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ctx is the context every in-process layer call runs under.
var ctx = context.Background()
