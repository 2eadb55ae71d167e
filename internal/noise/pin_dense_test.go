package noise_test

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"atomique/internal/bench"
	"atomique/internal/compiler"
	_ "atomique/internal/compiler/backends" // register the atomique backend
	"atomique/internal/noise"
)

// TestPinnedDenseOutputs pins the exact bits of a non-Clifford dense run:
// the compiled QAOA-rand-10 witness (the simulate-dense benchmark circuit)
// over several noise seeds. TestPinnedOutputs covers a Clifford witness,
// whose overlaps are exactly 0 or 1; here every errored shot's overlap is a
// generic float, so any change in the state-vector kernels' rounding or in
// the replay's op sequence shows.
func TestPinnedDenseOutputs(t *testing.T) {
	bm, ok := bench.ByName("QAOA-rand-10")
	if !ok {
		t.Fatal("QAOA-rand-10 not in the benchmark registry")
	}
	be, ok := compiler.Lookup("atomique")
	if !ok {
		t.Fatal("atomique backend not registered")
	}
	ctx := context.Background()
	res, err := be.Compile(ctx, compiler.Target{}, bm.Circ, compiler.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64]string{
		1:             "fidelity=3fee5e146042357c stdErr=3f63dd2d7787c55b sample=789d0cb39a4f597603124ce026981507bb02fd0c9945b6420fe6fcde23b086b1",
		2:             "fidelity=3fee81126cd136c4 stdErr=3f630bac80a8168a sample=2c4f8f6b78fa4bdd15b1b5b7ac0b1b6768d23138d5f5795f4eb9717a106fcb79",
		977:           "fidelity=3fee6d3939e4a305 stdErr=3f6383b5d7715c22 sample=f518b113d752b0f9364c1d2a4e2e0e524df408c7acf3fe4cfe28aa681643dea6",
		1<<40 + 12345: "fidelity=3fee57ba339d2261 stdErr=3f64030e94d672b3 sample=f2bd3a1e2ee4dae8808eca242fa15151355c1a0b8b87c473aff8a4ba978cc3d9",
	}
	for seed, w := range want {
		est, _, err := compiler.RunShots(ctx, compiler.Target{}, res, compiler.ShotRun{NoisyShots: 8192, NoiseSeed: seed}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if est.Engine != noise.EngineDense {
			t.Fatalf("engine %q, want %s", est.Engine, noise.EngineDense)
		}
		_, sr, err := compiler.RunShots(ctx, compiler.Target{}, res, compiler.ShotRun{NoisyShots: 4096, NoiseSeed: seed, SampleBits: true}, nil)
		if err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(sr)
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("fidelity=%016x stdErr=%016x sample=%x",
			math.Float64bits(est.Fidelity), math.Float64bits(est.StdErr), sha256.Sum256(js))
		if got != w {
			t.Errorf("seed %d:\n got %s\nwant %s", seed, got, w)
		}
	}
}
