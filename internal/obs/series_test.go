package obs_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"mmv2v/internal/obs"
)

// findSeriesRow returns the first row in a point matching (name, kind), or
// fails the test.
func findSeriesRow(t *testing.T, pt obs.SeriesPoint, name, kind string) obs.Row {
	t.Helper()
	for _, row := range pt.Rows {
		if row.Name == name && row.Kind == kind {
			return row
		}
	}
	t.Fatalf("window %d has no row %s/%s: %v", pt.Window, name, kind, pt.Rows)
	return obs.Row{}
}

func TestSeriesDeltaSemantics(t *testing.T) {
	r := obs.New()
	s := obs.NewSeries()

	// Window 0: every kind active.
	r.Counter("c").Add(3)
	g := r.Gauge("g")
	g.Observe(4)
	g.Observe(2)
	h := r.Histogram("h", []float64{5})
	h.Observe(1)
	h.Observe(9)
	s.Sample(0, r)

	// Window 1: counter idle, gauge observes a new global max, histogram
	// fills only the overflow bucket.
	g.Observe(10)
	h.Observe(7)
	s.Sample(1, r)

	pts := s.Points()
	if len(pts) != 2 || pts[0].Window != 0 || pts[1].Window != 1 {
		t.Fatalf("points = %+v, want windows [0 1]", pts)
	}

	// Window 0 deltas equal the cumulative values (first sample).
	if got := findSeriesRow(t, pts[0], "c", obs.KindCounter); got.Count != 3 {
		t.Fatalf("window 0 counter delta = %d, want 3", got.Count)
	}
	g0 := findSeriesRow(t, pts[0], "g", obs.KindGauge)
	if g0.Count != 2 || g0.Sum != 6 || g0.Min != 2 || g0.Max != 4 {
		t.Fatalf("window 0 gauge = %+v, want count 2 sum 6 min 2 max 4", g0)
	}

	// Window 1: idle counter omitted; gauge count/sum are deltas while
	// min/max stay cumulative; histogram buckets are per-window deltas.
	for _, row := range pts[1].Rows {
		if row.Name == "c" {
			t.Fatalf("idle counter should be omitted from window 1: %v", pts[1].Rows)
		}
	}
	g1 := findSeriesRow(t, pts[1], "g", obs.KindGauge)
	if g1.Count != 1 || g1.Sum != 10 {
		t.Fatalf("window 1 gauge delta = %+v, want count 1 sum 10", g1)
	}
	if g1.Min != 2 || g1.Max != 10 {
		t.Fatalf("window 1 gauge extrema = min %v max %v, want cumulative 2/10", g1.Min, g1.Max)
	}
	h1 := findSeriesRow(t, pts[1], "h", obs.KindHistogram)
	if h1.Count != 1 || h1.Sum != 7 {
		t.Fatalf("window 1 hist delta = %+v, want count 1 sum 7", h1)
	}
	wantBuckets := []obs.BucketCount{{LE: "5", N: 0}, {LE: "+Inf", N: 1}}
	if !reflect.DeepEqual(h1.Buckets, wantBuckets) {
		t.Fatalf("window 1 hist buckets = %v, want %v", h1.Buckets, wantBuckets)
	}
}

func TestSeriesNilSafety(t *testing.T) {
	var s *obs.Series
	s.Sample(0, obs.New())
	if s.Points() != nil || s.Len() != 0 {
		t.Fatal("nil series should yield no points")
	}
	live := obs.NewSeries()
	live.Sample(0, nil)
	if live.Len() != 0 {
		t.Fatal("sampling a nil registry should be a no-op")
	}
	// An active but empty registry still appends a point so window indices
	// stay aligned with the sim loop.
	live.Sample(0, obs.New())
	if live.Len() != 1 {
		t.Fatalf("empty registry sample: len = %d, want 1", live.Len())
	}
	if merged := obs.MergeSeries([]*obs.Series{nil, nil}); merged != nil {
		t.Fatal("merging all-nil series should stay nil")
	}
}

// trialSeries samples trialRegistry-style activity over the given number of
// windows, keyed by the trial index, with integer-valued floats.
func trialSeries(trial, windows int) *obs.Series {
	r := obs.New()
	s := obs.NewSeries()
	for w := 0; w < windows; w++ {
		r.Counter("ctr.a").Add(uint64(trial + w + 1))
		r.Gauge("gauge.x").Observe(float64(trial*10 + w))
		h := r.Histogram("hist.y", []float64{2, 8})
		h.Observe(float64(trial + 3*w))
		s.Sample(w, r)
	}
	return s
}

func TestMergeSeriesSlotOrderInvariance(t *testing.T) {
	const trials, windows = 5, 4
	forward := make([]*obs.Series, trials)
	for tr := 0; tr < trials; tr++ {
		forward[tr] = trialSeries(tr, windows)
	}
	backward := make([]*obs.Series, trials)
	for tr := trials - 1; tr >= 0; tr-- {
		backward[tr] = trialSeries(tr, windows)
	}
	a := obs.SeriesRows(obs.MergeSeries(forward).Points(), "")
	b := obs.SeriesRows(obs.MergeSeries(backward).Points(), "")
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("construction order changed the series merge:\n%v\nvs\n%v", a, b)
	}
	// Nil slots (failed trials) drop out without shifting windows.
	withNil := obs.MergeSeries([]*obs.Series{forward[0], nil, forward[1], forward[2], forward[3], forward[4]})
	if withNil.Len() != windows {
		t.Fatalf("merged len = %d, want %d", withNil.Len(), windows)
	}
}

func TestMergeSeriesMatchesRegistryMerge(t *testing.T) {
	// The last window's cumulative totals (sum of all deltas) must agree
	// with merging the same activity through plain registries: the series
	// is the time decomposition of the cumulative merge.
	const trials, windows = 3, 3
	series := make([]*obs.Series, trials)
	regs := make([]*obs.Registry, trials)
	for tr := 0; tr < trials; tr++ {
		series[tr] = trialSeries(tr, windows)
		r := obs.New()
		for w := 0; w < windows; w++ {
			r.Counter("ctr.a").Add(uint64(tr + w + 1))
			r.Gauge("gauge.x").Observe(float64(tr*10 + w))
			r.Histogram("hist.y", []float64{2, 8}).Observe(float64(tr + 3*w))
		}
		regs[tr] = r
	}
	merged := obs.MergeSeries(series).Points()
	totals := map[string]uint64{}
	var sums = map[string]float64{}
	for _, pt := range merged {
		for _, row := range pt.Rows {
			totals[row.Name] += row.Count
			sums[row.Name] += row.Sum
		}
	}
	for _, want := range obs.Merge(regs).Rows("") {
		if totals[want.Name] != want.Count {
			t.Fatalf("%s: summed window counts = %d, want cumulative %d", want.Name, totals[want.Name], want.Count)
		}
		if want.Kind != obs.KindCounter && sums[want.Name] != want.Sum {
			t.Fatalf("%s: summed window sums = %v, want cumulative %v", want.Name, sums[want.Name], want.Sum)
		}
	}
}

func TestSeriesGoldenExports(t *testing.T) {
	r := obs.New()
	s := obs.NewSeries()
	r.Counter("snd.ssw_tx").Add(100)
	r.Gauge("udt.goodput").Observe(0.5)
	s.Sample(0, r)
	r.Counter("snd.ssw_tx").Add(44)
	r.Histogram("world.links", []float64{16}).Observe(12)
	s.Sample(1, r)

	rows := obs.SeriesRows(s.Points(), "drive")
	var jb bytes.Buffer
	if err := obs.WriteSeriesJSONL(&jb, rows); err != nil {
		t.Fatal(err)
	}
	wantJSONL := strings.Join([]string{
		`{"scope":"drive","window":0,"name":"snd.ssw_tx","kind":"counter","count":100,"sum":0,"min":0,"max":0}`,
		`{"scope":"drive","window":0,"name":"udt.goodput","kind":"gauge","count":1,"sum":0.5,"min":0.5,"max":0.5}`,
		`{"scope":"drive","window":1,"name":"snd.ssw_tx","kind":"counter","count":44,"sum":0,"min":0,"max":0}`,
		`{"scope":"drive","window":1,"name":"world.links","kind":"histogram","count":1,"sum":12,"min":0,"max":0,"buckets":[{"le":"16","n":1},{"le":"+Inf","n":0}]}`,
	}, "\n") + "\n"
	if jb.String() != wantJSONL {
		t.Fatalf("golden series JSONL mismatch:\ngot:\n%swant:\n%s", jb.String(), wantJSONL)
	}

	var cb bytes.Buffer
	if err := obs.WriteSeriesCSV(&cb, rows); err != nil {
		t.Fatal(err)
	}
	wantCSV := strings.Join([]string{
		"scope,window,name,kind,count,sum,min,max,buckets",
		"drive,0,snd.ssw_tx,counter,100,0,0,0,",
		"drive,0,udt.goodput,gauge,1,0.5,0.5,0.5,",
		"drive,1,snd.ssw_tx,counter,44,0,0,0,",
		"drive,1,world.links,histogram,1,12,0,0,16=1;+Inf=0",
	}, "\n") + "\n"
	if cb.String() != wantCSV {
		t.Fatalf("golden series CSV mismatch:\ngot:\n%swant:\n%s", cb.String(), wantCSV)
	}
}

func TestSortSeriesRowsPoolsScopes(t *testing.T) {
	a := obs.SeriesRows(trialSeries(0, 2).Points(), "b-cell")
	b := obs.SeriesRows(trialSeries(1, 2).Points(), "a-cell")
	pooled := append(append([]obs.SeriesRow{}, a...), b...)
	obs.SortSeriesRows(pooled)
	if pooled[0].Scope != "a-cell" {
		t.Fatalf("first scope = %q, want a-cell", pooled[0].Scope)
	}
	for i := 1; i < len(pooled); i++ {
		p, q := pooled[i-1], pooled[i]
		if q.Scope < p.Scope || (q.Scope == p.Scope && q.Window < p.Window) {
			t.Fatal("rows not sorted by (scope, window)")
		}
	}
}

func TestProgressStateFraction(t *testing.T) {
	cases := []struct {
		name string
		p    obs.ProgressState
		want float64
	}{
		{"empty", obs.ProgressState{}, 0},
		{"cells only", obs.ProgressState{CellsDone: 1, CellsTotal: 4}, 0.25},
		{"trials win over cells", obs.ProgressState{CellsDone: 1, CellsTotal: 4, TrialsDone: 1, TrialsTotal: 2}, 0.5},
		{"windows win over trials", obs.ProgressState{TrialsDone: 1, TrialsTotal: 2, WindowsDone: 3, WindowsTotal: 4}, 0.75},
		{"overshoot clamps", obs.ProgressState{WindowsDone: 9, WindowsTotal: 4}, 1},
	}
	for _, tc := range cases {
		if got := tc.p.Fraction(); got != tc.want {
			t.Errorf("%s: Fraction() = %v, want %v", tc.name, got, tc.want)
		}
	}
}
