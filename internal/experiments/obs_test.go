package experiments

import (
	"bytes"
	"sync"
	"testing"

	"mmv2v/internal/obs"
)

// TestFig9StatsByteIdenticalAcrossWorkers pins the observability merge
// invariant at the experiment level: with Stats on, both the stats JSONL
// export and the rendered summary table of the Fig. 9 scenario are
// byte-identical whether cells and trials run on one worker or eight —
// and so is the figure table itself.
func TestFig9StatsByteIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment determinism test")
	}
	render := func(workers int) (table, jsonl, summary []byte) {
		opts := Fig9Options{Run: Run{Seed: 1, Trials: 2, Workers: workers}, Densities: []float64{12}, Stats: true}
		res, err := Fig9(opts)
		if err != nil {
			t.Fatal(err)
		}
		var tbl bytes.Buffer
		res.WriteTable(&tbl)
		rows := res.StatsRows()
		if len(rows) == 0 {
			t.Fatal("Stats run produced no stats rows")
		}
		var jl, sum bytes.Buffer
		if err := obs.WriteJSONL(&jl, rows); err != nil {
			t.Fatal(err)
		}
		obs.WriteSummary(&sum, rows)
		return tbl.Bytes(), jl.Bytes(), sum.Bytes()
	}
	t1, j1, s1 := render(1)
	t8, j8, s8 := render(8)
	if !bytes.Equal(j1, j8) {
		t.Errorf("stats JSONL differs between Workers=1 and Workers=8:\n--- serial ---\n%s\n--- parallel ---\n%s", j1, j8)
	}
	if !bytes.Equal(s1, s8) {
		t.Error("stats summary table differs between Workers=1 and Workers=8")
	}
	if !bytes.Equal(t1, t8) {
		t.Error("Fig. 9 table differs between Workers=1 and Workers=8 with Stats on")
	}
}

// TestFig9StatsOffLeavesTableUnchanged pins the zero-cost contract at the
// experiment level: enabling nothing (the default) must not change the
// rendered table relative to a run that never heard of statistics, and
// cells carry no registries.
func TestFig9StatsOffLeavesTableUnchanged(t *testing.T) {
	opts := Fig9Options{Run: Run{Seed: 7, Trials: 1}, Densities: []float64{12}}
	res, err := Fig9(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		for _, c := range row.Cells {
			if c.Obs != nil {
				t.Fatalf("cell %s carries a registry with Stats off", c.Protocol)
			}
		}
	}
	if rows := res.StatsRows(); rows != nil {
		t.Fatalf("StatsRows = %v with Stats off, want nil", rows)
	}
}

// TestFig9ProgressReportsEveryCell checks the per-cell progress callback
// fires exactly once per (density, protocol) cell.
func TestFig9ProgressReportsEveryCell(t *testing.T) {
	var mu sync.Mutex
	var seen []string
	opts := Fig9Options{
		Run: Run{Seed: 1, Trials: 1, Progress: func(cell string) {
			mu.Lock()
			seen = append(seen, cell)
			mu.Unlock()
		}},
		Densities: []float64{12},
	}
	if _, err := Fig9(opts); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 {
		t.Fatalf("progress fired %d times (%v), want one per cell (3)", len(seen), seen)
	}
}
