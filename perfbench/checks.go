package main

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sync"

	"atomique/internal/circuit"
	"atomique/internal/compiler"
	"atomique/internal/compiler/conformance"
	"atomique/internal/hardware"
	"atomique/internal/noise"
	"atomique/internal/qasm"
	"atomique/internal/report"
	"atomique/internal/stab"
)

// requestSigmas bounds one simulate reply's survival around the analytic
// fidelity. A per-request 4σ bound would fail about once in 16,000 correct
// replies, so single replies get 6σ (about one in 500 million) and the
// pooled survival of the whole run is held to 4σ in pooled.
const requestSigmas = 6

// checker holds the output checks of one run. request is called from the
// client goroutines.
type checker struct {
	suite []circuitSrc

	mu       sync.Mutex
	survived float64 // simulate: surviving shots over the run
	shots    float64
	analytic float64
}

func (c *checker) fail(r *reply, format string, args ...any) {
	r.fail, r.err = failCheck, fmt.Errorf(format, args...)
}

// request checks one successful reply against its input.
func (c *checker) request(r *reply) {
	env, in, src := r.env, r.in, c.suite[r.in.circ]
	switch {
	case env.CircuitHash != src.fingerprint:
		c.fail(r, "circuitHash %s, want %s", env.CircuitHash, src.fingerprint)
		return
	case env.Backend != "atomique" || env.Metrics.NQubits != src.qubits:
		c.fail(r, "backend %q with %d qubits, want atomique with %d", env.Backend, env.Metrics.NQubits, src.qubits)
		return
	case !(env.FidelityTotal > 0 && env.FidelityTotal <= 1):
		c.fail(r, "fidelityTotal %v outside (0, 1]", env.FidelityTotal)
		return
	}
	switch in.path {
	case "/v1/simulate":
		n := env.Noise
		if n == nil || n.Shots != in.shots || n.Seed != in.noiseSeed {
			c.fail(r, "noise estimate missing or for other shots/seed: %+v", n)
			return
		}
		if d := math.Abs(n.Survival - n.Analytic); d > requestSigmas*n.SurvivalSigma() {
			c.fail(r, "survival %v is %.1fσ from analytic %v", n.Survival, d/n.SurvivalSigma(), n.Analytic)
			return
		}
		c.mu.Lock()
		c.survived += n.Survival * float64(n.Shots)
		c.shots += float64(n.Shots)
		c.analytic = n.Analytic
		c.mu.Unlock()
	case "/v1/sample":
		if err := checkShard(env.Sample, in); err != nil {
			c.fail(r, "%v", err)
		}
	}
}

func checkShard(s *noise.SampleResult, in input) error {
	if s == nil || s.Shots != in.shots || s.Offset != in.offset || s.Seed != in.noiseSeed {
		return fmt.Errorf("sample missing or for another shot range/seed")
	}
	var sum int64
	for _, n := range s.Counts {
		sum += n
	}
	if sum != int64(s.Shots-s.LostShots) {
		return fmt.Errorf("histogram counts sum to %d, want shots-lost = %d", sum, s.Shots-s.LostShots)
	}
	return nil
}

// pooled holds the run's pooled survival to 4σ of the analytic fidelity.
func (c *checker) pooled() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.shots == 0 {
		return nil
	}
	a := c.analytic
	sigma := math.Sqrt(a * (1 - a) / c.shots)
	if got := c.survived / c.shots; math.Abs(got-a) > 4*sigma {
		return fmt.Errorf("pooled survival %v over %.0f shots is more than 4σ (%v) from analytic %v", got, c.shots, sigma, a)
	}
	return nil
}

// mergeCheck sends round 0's shards and the single request covering the
// same shots, and demands that the merged shards equal it bit for bit.
// Failures land in the tally.
func mergeCheck(s *server, w *workload, suite []circuitSrc, t *tally) {
	var parts []*noise.SampleResult
	for i := range shardsPerRun {
		in := w.at(i)
		r := s.send(in, in.body(suite), nil)
		if r.fail == "" {
			if err := checkShard(r.env.Sample, in); err != nil {
				r.fail, r.err = failCheck, err
			}
		}
		t.add(r)
		if r.fail != "" {
			return
		}
		parts = append(parts, r.env.Sample)
	}
	full := w.at(0)
	full.shots = shardsPerRun * shardShots
	r := s.send(full, full.body(suite), nil)
	if r.fail == "" {
		merged, err := noise.MergeSamples(parts...)
		switch {
		case err != nil:
			r.fail, r.err = failCheck, err
		case !reflect.DeepEqual(merged, r.env.Sample):
			r.fail, r.err = failCheck, fmt.Errorf("%d merged shards differ from one %d-shot request", shardsPerRun, full.shots)
		default:
			r.err = checkShard(r.env.Sample, full)
			if r.err != nil {
				r.fail = failCheck
			}
		}
	}
	t.add(r)
}

// quality is the output quality of the compiles on the quality list.
type quality struct {
	fidelityGeomean float64
	depth2Q         int
	addedCNOTs      int
	moveDist        float64 // meters
	pairs, replayed int
}

// referenceCompile compiles a source in process exactly as the service
// resolves a default atomique request.
func referenceCompile(src circuitSrc, seed int64) (*circuit.Circuit, *compiler.Result, error) {
	circ, err := qasm.ParseString(src.qasm)
	if err != nil {
		return nil, nil, err
	}
	be, ok := compiler.Lookup("atomique")
	if !ok {
		return nil, nil, fmt.Errorf("atomique backend not registered")
	}
	res, err := be.Compile(ctx, compiler.FPQA(hardware.DefaultConfig()), circ, compiler.Options{Seed: seed})
	return circ, res, err
}

func envelopeOf(fingerprint string, res *compiler.Result) report.Envelope {
	env := report.NewEnvelope(fingerprint, res.Metrics)
	env.Backend, env.Extra, env.TimedOut = res.Backend, res.Extra, res.TimedOut
	env.Noise, env.Sample = res.Noise, res.Sample
	return env
}

func canonicalBytes(env report.Envelope) ([]byte, error) { return env.Canonical().EncodeJSON() }

// replayable reports whether the simulator replay can judge a witness:
// Clifford compilations up to the tableau's width, anything else up to the
// dense state vector's.
func replayable(src *circuit.Circuit, p *compiler.Program) bool {
	if src.IsClifford() && circuit.AllClifford(p.Gates) {
		return p.NSlots <= stab.MaxQubits
	}
	return p.NSlots <= noise.MaxQubits
}

// runQuality compiles every pair on the list over HTTP, checks that each
// canonical envelope equals an in-process compile, replays the marked
// pairs' witnesses in the simulator when verify is set, and sums the output
// quality. Failures land in the tally.
func runQuality(s *server, suite []circuitSrc, list []input, verify bool, t *tally) quality {
	var q quality
	logFid := 0.0
	for _, in := range list {
		r := s.send(in, in.body(suite), nil)
		if r.fail == "" {
			replayed, err := checkAgainstReference(r.env, suite[in.circ], in.seed, verify && in.verify)
			if err != nil {
				r.fail, r.err = failCheck, fmt.Errorf("%s seed %d: %w", suite[in.circ].name, in.seed, err)
			} else if replayed {
				q.replayed++
			}
		}
		t.add(r)
		if r.fail != "" {
			continue
		}
		m := r.env.Metrics
		q.pairs++
		logFid += math.Log(r.env.FidelityTotal)
		q.depth2Q += m.Depth2Q
		q.addedCNOTs += m.AddedCNOTs
		q.moveDist += m.TotalMoveDist
	}
	if q.pairs > 0 {
		q.fidelityGeomean = math.Exp(logFid / float64(q.pairs))
	}
	return q
}

func checkAgainstReference(got *report.Envelope, src circuitSrc, seed int64, replay bool) (replayed bool, err error) {
	circ, res, err := referenceCompile(src, seed)
	if err != nil {
		return false, fmt.Errorf("reference compile: %w", err)
	}
	want, err := canonicalBytes(envelopeOf(src.fingerprint, res))
	if err != nil {
		return false, err
	}
	have, err := canonicalBytes(*got)
	if err != nil {
		return false, err
	}
	if !bytes.Equal(have, want) {
		return false, fmt.Errorf("served envelope differs from the in-process compile")
	}
	if !replay || res.Program == nil || !replayable(circ, res.Program) {
		return false, nil
	}
	if err := conformance.VerifyResult(circ, res); err != nil {
		return false, fmt.Errorf("witness replay: %w", err)
	}
	return true, nil
}
