package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"atomique/internal/bench"
	"atomique/internal/qasm"
)

// Workload shapes. Every input is a pure function of (workload seed, input
// index), so a run's input sequence is fixed by its seed however the closed
// loop's clients interleave.
const (
	simulateShots = 8192
	shardShots    = 4096
	shardsPerRun  = 8
	repeatSeed    = 1 // the compile seed of repeated (cacheable) requests
)

// circuitSrc is one Table II circuit as the service receives it: inline
// QASM, plus the fingerprint the service computes from that text.
type circuitSrc struct {
	name        string
	qubits      int
	qasm        string
	qasmJSON    json.RawMessage
	fingerprint string
}

// loadSuite emits every Table II circuit as QASM and parses it back, so the
// expected fingerprints are those of the text the service parses.
func loadSuite() ([]circuitSrc, error) {
	var out []circuitSrc
	for _, b := range bench.Table2Suite() {
		src := qasm.String(b.Circ)
		parsed, err := qasm.ParseString(src)
		if err != nil {
			return nil, fmt.Errorf("round-trip %s: %w", b.Name, err)
		}
		js, err := json.Marshal(src)
		if err != nil {
			return nil, err
		}
		out = append(out, circuitSrc{name: b.Name, qubits: b.Circ.N, qasm: src, qasmJSON: js, fingerprint: parsed.Fingerprint()})
	}
	return out, nil
}

func suiteIndex(suite []circuitSrc, name string) int {
	for i, c := range suite {
		if c.name == name {
			return i
		}
	}
	panic("perfbench: circuit " + name + " is not in the Table II suite")
}

// input is one request of a workload.
type input struct {
	index     int
	path      string
	circ      int // index into the suite
	seed      int64
	shots     int
	noiseSeed int64
	offset    int64
	verify    bool // quality list: replay the witness in the simulator
}

// body is the request JSON the service receives.
func (in input) body(suite []circuitSrc) []byte {
	type request struct {
		QASM       json.RawMessage `json:"qasm"`
		Backend    string          `json:"backend"`
		Seed       int64           `json:"seed"`
		Shots      int             `json:"shots,omitempty"`
		NoiseSeed  int64           `json:"noiseSeed,omitempty"`
		ShotOffset int64           `json:"shotOffset,omitempty"`
	}
	b, err := json.Marshal(request{QASM: suite[in.circ].qasmJSON, Backend: "atomique", Seed: in.seed,
		Shots: in.shots, NoiseSeed: in.noiseSeed, ShotOffset: in.offset})
	if err != nil {
		panic(err) // the fields above always encode
	}
	return b
}

// workload is one closed-loop traffic mix.
type workload struct {
	name    string
	clients int
	why     string
	// prefix is the number of leading inputs the traced run's exact counts
	// cover; the traced run replays at least this many.
	prefix int
	// repeatEvery, when set, re-sends every repeatEvery-th input right
	// after its reply, so a workload whose own traffic never repeats still
	// measures the latency of a cache hit across its whole run.
	repeatEvery int
	// at returns input i of the seeded sequence.
	at func(i int) input
}

// stream returns a generator that is independent per (seed, stream, index).
func stream(seed int64, salt, i uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), salt<<40^i))
}

func newWorkload(name string, seed int64, suite []circuitSrc) (*workload, error) {
	switch name {
	case "compile-mix":
		return &workload{name: name, clients: 2, prefix: 64,
			why: "2 closed-loop clients compile a seeded draw of Table II circuits; 1 request in 4 repeats seed 1 (cache hit), 3 in 4 carry a fresh seed",
			at: func(i int) input {
				r := stream(seed, 1, uint64(i))
				in := input{index: i, path: "/v1/compile", circ: r.IntN(len(suite)), seed: repeatSeed}
				if i%4 != 0 {
					in.seed = 2 + r.Int64N(1<<62)
				}
				return in
			}}, nil
	case "simulate-dense":
		c := suiteIndex(suite, "QAOA-rand-10")
		return &workload{name: name, clients: 1, prefix: 16, repeatEvery: 4,
			why: "1 closed-loop client simulates QAOA-rand-10 (non-Clifford, dense engine) at 8192 shots with a fresh noise seed per request",
			at: func(i int) input {
				return input{index: i, path: "/v1/simulate", circ: c, seed: repeatSeed, shots: simulateShots,
					noiseSeed: 1 + stream(seed, 2, uint64(i)).Int64N(1<<62)}
			}}, nil
	case "sample-shards":
		c := suiteIndex(suite, "BV-70")
		return &workload{name: name, clients: 1, prefix: 2 * shardsPerRun, repeatEvery: shardsPerRun,
			why: "1 closed-loop client samples BV-70 (Clifford, stabilizer engine) in rounds of 8 shards of 4096 shots sharing one noise seed",
			at: func(i int) input {
				round := i / shardsPerRun
				return input{index: i, path: "/v1/sample", circ: c, seed: repeatSeed, shots: shardShots,
					noiseSeed: 1 + stream(seed, 3, uint64(round)).Int64N(1<<62),
					offset:    int64(i%shardsPerRun) * shardShots}
			}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want compile-mix, simulate-dense or sample-shards)", name)
}

// qualitySeeds is the number of compile seeds per circuit on the quality
// list; summing over several seeds keeps the totals' spread across workload
// seeds to a few percent.
const qualitySeeds = 16

// qualityList is the seed-derived list of (circuit, compile seed) pairs the
// output-quality metrics and the compile output check cover: every Table II
// circuit with qualitySeeds seeds each. The first pair of each circuit is
// marked for the simulator replay.
func qualityList(seed int64, suite []circuitSrc) []input {
	var out []input
	for c := range suite {
		for j := range qualitySeeds {
			i := len(out)
			out = append(out, input{index: i, path: "/v1/compile", circ: c,
				seed: 1 + stream(seed, 4, uint64(i)).Int64N(1<<20), verify: j == 0})
		}
	}
	return out
}
