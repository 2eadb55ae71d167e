package benchwork

import (
	"testing"

	"atomique/internal/compiler"
)

// BenchmarkTracked runs every tracked workload as a sub-benchmark. CI runs
// it as a smoke test (-benchtime=1x); `experiments -bench-record` measures
// the same list into BENCH_*.json.
func BenchmarkTracked(b *testing.B) {
	for _, w := range All() {
		b.Run(w.Name, w.Run)
	}
}

func TestRegistryNames(t *testing.T) {
	seen := make(map[string]bool)
	for _, w := range All() {
		if w.Name == "" || w.Run == nil {
			t.Fatalf("incomplete workload %+v", w)
		}
		if seen[w.Name] {
			t.Errorf("duplicate workload %q", w.Name)
		}
		seen[w.Name] = true
	}
	for _, be := range compiler.List() {
		if !seen["backend/"+be.Name()] {
			t.Errorf("backend %q has no backend/%s workload", be.Name(), be.Name())
		}
	}
	for _, name := range []string{"tab2-compile", "noisy-shots/workers-1", "stab-trajectory/ghz-128",
		"sample/dense-qaoa-12", "sample/stab-ghz-64", "sample/stab-ghz-128"} {
		if !seen[name] {
			t.Errorf("missing workload %q", name)
		}
	}
}
