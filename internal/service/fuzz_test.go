package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"atomique/internal/compiler"
	"atomique/internal/hardware"
	"atomique/internal/noise"
)

// FuzzRequest asserts the service boundary's error contract on arbitrary
// bytes: decoding them through decodeBody, the helper every JSON endpoint
// uses, then resolving the request either succeeds or fails with a
// *RequestError — neither panics nor reports a client mistake as anything
// the HTTP layer would map to a 5xx.
//
// Run it as a regression corpus with `go test ./internal/service`, or as a
// fuzzer with `go test -run='^$' -fuzz=FuzzRequest ./internal/service`.
func FuzzRequest(f *testing.F) {
	zones := compiler.ZonedSpec{Geometry: hardware.ZonesFor(4)}
	zones.Geometry.EntangleSites = 1
	for _, req := range []Request{
		{Benchmark: "H2-4", Seed: 7},
		{Benchmark: "h2-4", Seed: 1, Priority: PriorityBatch},
		{Benchmark: "H2-4", Backend: "solverref", Exact: true, Budget: 1.5},
		{Benchmark: "H2-4", Relax: "1,2", Serial: true, Dense: true},
		{Benchmark: "H2-4", SLM: 6, AODs: 3, AODSize: 5},
		{QASM: ghzQASM, Seed: 3},
		{QASM: ghzQASM, Backend: "sabre", Family: "triangular"},
		{QASM: ghzQASM, Backend: "zoned", Zones: &zones},
		{QASM: ghzQASM, Seed: 7, Shots: 300, Engine: noise.EngineDense, NoiseScale: 2, Noise1Q: 0.01, Noise2Q: 0.02},
		{QASM: ghzQASM, NoiseSeed: 11, Shots: 500, Sample: true, ShotOffset: 400},
		// The oversized overrides the site bound rejects before allocating.
		{Benchmark: "H2-4", AODs: 16777216},
		{Benchmark: "H2-4", SLM: 1 << 30},
	} {
		js, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(js)
	}
	f.Add([]byte(`{"benchmark":"H2-4"}{"benchmark":"QV-32"}`)) // trailing data
	e := New(Config{Workers: 1})
	f.Cleanup(e.Close)
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		err := decodeBody(bytes.NewReader(data), &req)
		if err == nil {
			_, err = e.resolve(req)
		}
		var re *RequestError
		if err != nil && !errors.As(err, &re) {
			t.Fatalf("resolve(%s) = %T %v, want *RequestError", data, err, err)
		}
	})
}
