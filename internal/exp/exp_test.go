package exp

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func init() {
	// Keep solver budgets small under test; the Fig 14 claims are about
	// ratios, which survive scaling.
	Table2Budget = 200 * time.Millisecond
	Fig14Budget = 300 * time.Millisecond
}

func TestAllRegistryWellFormed(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("experiment %+v incomplete", e)
		}
		if ids[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		ids[e.ID] = true
	}
	if _, ok := ByID("fig13"); !ok {
		t.Errorf("ByID(fig13) not found")
	}
	if _, ok := ByID("nope"); ok {
		t.Errorf("ByID(nope) found")
	}
}

// TestNoiseValidationTable checks the cross-backend noise table's shape:
// one row per registered backend in each workload table. The statistical
// empirical-vs-analytic assertions live in internal/regress (the corpus
// validation suite); this guards the experiment driver itself.
func TestNoiseValidationTable(t *testing.T) {
	ts := NoiseValidation()
	if len(ts) != 2 {
		t.Fatalf("NoiseValidation returned %d tables, want 2", len(ts))
	}
	for _, tb := range ts {
		if len(tb.Rows) < 6 {
			t.Errorf("%s: %d rows, want one per registered backend (>= 6)", tb.Title, len(tb.Rows))
		}
	}
}

// TestSamplingTable runs the sampling experiment, whose driver panics when a
// row's two merged shards differ from its full-range run, and checks that
// the rows wider than the dense engine sample on the stabilizer engine.
func TestSamplingTable(t *testing.T) {
	ts := Sampling()
	if len(ts) != 1 || len(ts[0].Rows) != 5 {
		t.Fatalf("Sampling returned %d tables, want 1 with 5 rows", len(ts))
	}
	for _, row := range ts[0].Rows {
		if strings.HasPrefix(row[0], "GHZ-") && row[2] != "stab" {
			t.Errorf("%s sampled on engine %q, want stab", row[0], row[2])
		}
	}
}

func TestTable1(t *testing.T) {
	ts := Table1()
	if len(ts) != 1 || len(ts[0].Rows) < 10 {
		t.Fatalf("Table1 malformed")
	}
	out := ts[0].String()
	for _, want := range []string{"0.9975", "380ns", "15s"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 missing %q:\n%s", want, out)
		}
	}
}

func TestFig12ProfileEndsAtPitch(t *testing.T) {
	ts := Fig12()
	rows := ts[0].Rows
	last := rows[len(rows)-1]
	if last[len(last)-1] != "15" {
		t.Errorf("movement profile final distance = %q, want 15", last[len(last)-1])
	}
}

// TestFig13Shape verifies the headline result on a spot-check basis: on the
// GMean row, Atomique must beat every baseline on depth, 2Q count, and
// fidelity.
func TestFig13Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("fig13 is a full-suite run")
	}
	tables := Fig13()
	for _, tbl := range tables {
		gmean := tbl.Rows[len(tbl.Rows)-1]
		if gmean[0] != "GMean" {
			t.Fatalf("%s: last row is %q, want GMean", tbl.Title, gmean[0])
		}
		atom := parseF(t, gmean[len(gmean)-1])
		for i := 1; i < len(gmean)-1; i++ {
			base := parseF(t, gmean[i])
			switch {
			case strings.Contains(tbl.Title, "fidelity"):
				if atom < base {
					t.Errorf("%s: Atomique GMean %v below %s %v",
						tbl.Title, atom, tbl.Header[i], base)
				}
			default:
				if atom > base {
					t.Errorf("%s: Atomique GMean %v above %s %v",
						tbl.Title, atom, tbl.Header[i], base)
				}
			}
		}
	}
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	var v float64
	if _, err := sscan(s, &v); err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func sscan(s string, v *float64) (int, error) {
	return fmt.Sscan(s, v)
}

func TestFig21CumulativeImprovement(t *testing.T) {
	if testing.Short() {
		t.Skip("fig21 compiles multiple ablations")
	}
	tbl := Fig21()[0]
	if len(tbl.Rows) != 4 {
		t.Fatalf("fig21 rows = %d, want 4", len(tbl.Rows))
	}
	base := parseF(t, tbl.Rows[0][1])
	full := parseF(t, tbl.Rows[3][1])
	if full <= base {
		t.Errorf("full Atomique fidelity %v not above ablated baseline %v", full, base)
	}
}

func TestFig22GateCountInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("fig22 compiles 100-200 qubit circuits")
	}
	tbl := Fig22()[0]
	// Per benchmark, the 2Q column must be identical across the four
	// constraint configurations.
	byBench := map[string]map[string]bool{}
	for _, row := range tbl.Rows {
		name, gates := row[1], row[len(row)-1]
		if byBench[name] == nil {
			byBench[name] = map[string]bool{}
		}
		byBench[name][gates] = true
	}
	for name, set := range byBench {
		if len(set) != 1 {
			t.Errorf("%s: 2Q count varies across relaxations: %v", name, set)
		}
	}
}

// TestFig19Shape asserts the Q-Pilot trade-off on the GMean row: Atomique
// wins fidelity while Q-Pilot wins depth per benchmark row.
func TestFig19Shape(t *testing.T) {
	tbl := Fig19()[0]
	for _, row := range tbl.Rows {
		if row[0] == "GMean" {
			atom := parseF(t, row[5])
			qp := parseF(t, row[6])
			if atom <= qp {
				t.Errorf("GMean: Atomique %v <= Q-Pilot %v", atom, qp)
			}
			continue
		}
		depthAtom := parseF(t, row[1])
		depthQP := parseF(t, row[2])
		if depthQP >= depthAtom {
			t.Errorf("%s: Q-Pilot depth %v >= Atomique %v", row[0], depthQP, depthAtom)
		}
	}
}

// TestFig24Shape asserts overlap rejections never increase as arrays grow.
func TestFig24Shape(t *testing.T) {
	tbl := Fig24()[0]
	last := map[string]float64{}
	for _, row := range tbl.Rows {
		bench := row[1]
		overlaps := parseF(t, row[len(row)-1])
		if prev, ok := last[bench]; ok && overlaps > prev {
			t.Errorf("%s: overlaps grew with array size: %v -> %v", bench, prev, overlaps)
		}
		last[bench] = overlaps
	}
}

func TestZonedVsFlatShape(t *testing.T) {
	ts := ZonedVsFlat()
	if len(ts) != 1 {
		t.Fatalf("ZonedVsFlat returned %d tables", len(ts))
	}
	if got, want := len(ts[0].Rows), len(zonedSuite())+1; got != want {
		t.Fatalf("rows = %d, want %d benchmarks + gmean", got, want)
	}
	// The zoned scenario's signature: no SWAP CNOTs on the zoned column
	// while every compilation produces a positive fidelity.
	for i, b := range zonedSuite() {
		row := ts[0].Rows[i]
		if row[4] != "0" {
			t.Errorf("%s: zoned +CNOT = %v, want 0", b.Name, row[4])
		}
	}
}
