package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// Small option sets keep the experiment tests fast while still exercising
// every code path; the full paper-scale runs live behind the CLI and the
// benchmarks.

func smallFig6() Fig6Options {
	return Fig6Options{
		Run:       Run{Seed: 1, Trials: 1},
		Densities: []float64{12},
		CValues:   []int{1, 7},
		MaxSlots:  20,
		Frames:    1,
	}
}

func TestFig6SmokeAndShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	res, err := Fig6(smallFig6())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scenarios) != 1 || len(res.Scenarios[0].Series) != 2 {
		t.Fatalf("unexpected result shape: %+v", res)
	}
	sc := res.Scenarios[0]
	if sc.AvgNeighbors <= 0 {
		t.Errorf("avg neighbors = %v", sc.AvgNeighbors)
	}
	for _, s := range sc.Series {
		if len(s.CapacityBps) != 20 {
			t.Fatalf("series length %d", len(s.CapacityBps))
		}
		// Capacity is cumulative matching quality: the final slot should be
		// at least as good as the first.
		if s.CapacityBps[19] < s.CapacityBps[0] {
			t.Errorf("C=%d capacity decreased: first %v last %v", s.C, s.CapacityBps[0], s.CapacityBps[19])
		}
		if s.CapacityBps[19] <= 0 {
			t.Errorf("C=%d no capacity at all", s.C)
		}
	}
	// C=7 should reach at least the capacity of C=1 at the end (the paper's
	// point: tiny C wastes slots on collisions).
	c1 := sc.Series[0].CapacityBps[19]
	c7 := sc.Series[1].CapacityBps[19]
	if c7 < c1*0.8 {
		t.Errorf("C=7 capacity %v far below C=1 %v", c7, c1)
	}
	var buf bytes.Buffer
	res.WriteTable(&buf)
	if !strings.Contains(buf.String(), "Fig. 6") {
		t.Error("table missing header")
	}
	if best := res.BestC(); best[12] <= 0 {
		t.Errorf("BestC = %v", best)
	}
}

func TestFig7Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	opts := Fig7Options{Run: Run{Seed: 1, Trials: 1}, DensityVPL: 12, KValues: []int{1, 3}, M: 40, CurvePoints: 5}
	res, err := Fig7(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curves) != 2 {
		t.Fatalf("curves = %d", len(res.Curves))
	}
	for _, c := range res.Curves {
		if c.MeanOCR < 0 || c.MeanOCR > 1 || c.MeanATP < 0 || c.MeanATP > 1 {
			t.Errorf("K=%d means out of range: %+v", c.Value, c)
		}
		if c.OCRCDF.Len() == 0 {
			t.Errorf("K=%d empty CDF", c.Value)
		}
		// CDF at 1.0 must be exactly 1 (all values ≤ 1).
		if got := c.OCRCDF.P(1.0); got != 1 {
			t.Errorf("K=%d OCR CDF(1) = %v", c.Value, got)
		}
	}
	// More discovery rounds must not find fewer partners on average: K=3
	// should beat K=1 on ATP in a sparse, easy setting.
	if res.Curves[1].MeanATP < res.Curves[0].MeanATP*0.8 {
		t.Errorf("K=3 ATP %v far below K=1 %v", res.Curves[1].MeanATP, res.Curves[0].MeanATP)
	}
	if best := res.Best(); best != 1 && best != 3 {
		t.Errorf("Best = %d", best)
	}
	var buf bytes.Buffer
	res.WriteTable(&buf)
	if !strings.Contains(buf.String(), "K=3") {
		t.Error("table missing K=3 row")
	}
}

func TestFig8Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	opts := Fig8Options{Run: Run{Seed: 1, Trials: 1}, DensityVPL: 12, MValues: []int{20, 40}, K: 3, CurvePoints: 5}
	res, err := Fig8(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curves) != 2 {
		t.Fatalf("curves = %d", len(res.Curves))
	}
	if best := res.Best(); best != 20 && best != 40 {
		t.Errorf("Best = %d", best)
	}
	var buf bytes.Buffer
	res.WriteTable(&buf)
	if !strings.Contains(buf.String(), "M=40") {
		t.Error("table missing M=40 row")
	}
}

func TestFig9SmokeAndOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	opts := Fig9Options{Run: Run{Seed: 1, Trials: 1}, Densities: []float64{15}}
	res, err := Fig9(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || len(res.Rows[0].Cells) != 3 {
		t.Fatalf("unexpected shape %+v", res)
	}
	mm, ok1 := res.Get(15, "mmV2V")
	rop, ok2 := res.Get(15, "ROP")
	ad, ok3 := res.Get(15, "802.11ad")
	if !ok1 || !ok2 || !ok3 {
		t.Fatal("missing protocol summaries")
	}
	// The paper's headline ordering at normal density: mmV2V > 802.11ad >
	// ROP on OCR.
	if !(mm.Summary.MeanOCR > ad.Summary.MeanOCR && ad.Summary.MeanOCR > rop.Summary.MeanOCR) {
		t.Errorf("ordering violated: mmV2V=%.3f ad=%.3f ROP=%.3f",
			mm.Summary.MeanOCR, ad.Summary.MeanOCR, rop.Summary.MeanOCR)
	}
	var buf bytes.Buffer
	res.WriteTable(&buf)
	out := buf.String()
	for _, want := range []string{"(a) OCR", "(b) ATP", "(c) DTP", "mmV2V"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q", want)
		}
	}
}

func TestTheorem2MatchesAnalytic(t *testing.T) {
	opts := Theorem2Options{
		Seed:         1,
		Pairs:        20000,
		KValues:      []int{1, 3},
		PValues:      []float64{0.3, 0.5},
		MeasureInSim: false,
	}
	res, err := Theorem2(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	for _, c := range res.Cells {
		if math.Abs(c.Empirical-c.Analytic) > 0.02 {
			t.Errorf("p=%v K=%d: empirical %v vs analytic %v", c.P, c.K, c.Empirical, c.Analytic)
		}
	}
	// p = 0.5 must dominate p = 0.3 at equal K.
	get := func(p float64, k int) float64 {
		for _, c := range res.Cells {
			if c.P == p && c.K == k {
				return c.Empirical
			}
		}
		t.Fatalf("missing cell %v %v", p, k)
		return 0
	}
	if get(0.5, 3) <= get(0.3, 3) {
		t.Error("p=0.5 not optimal")
	}
	var buf bytes.Buffer
	res.WriteTable(&buf)
	if !strings.Contains(buf.String(), "Theorem 2") {
		t.Error("table missing header")
	}
}

func TestTheorem2InSimBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	opts := Theorem2Options{
		Seed:         1,
		Pairs:        1000,
		KValues:      []int{3},
		PValues:      []float64{0.5},
		MeasureInSim: true,
		DensityVPL:   12,
	}
	res, err := Theorem2(opts)
	if err != nil {
		t.Fatal(err)
	}
	ratio := res.SimRatioPerK[3]
	bound := 1 - math.Pow(0.5, 3)
	if ratio <= 0 || ratio > bound+0.05 {
		t.Errorf("in-sim ratio %v outside (0, %v]", ratio, bound)
	}
}

func TestAblationSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	opts := AblationOptions{Run: Run{Seed: 1, Trials: 1}, DensityVPL: 12}
	res, err := Ablation(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	oracle, ok := res.Get("oracle (centralized greedy)")
	if !ok {
		t.Fatal("missing oracle row")
	}
	paper, ok := res.Get("mmV2V (paper config)")
	if !ok {
		t.Fatal("missing paper row")
	}
	// The zero-overhead centralized oracle bounds the distributed protocol.
	if paper.MeanOCR > oracle.MeanOCR+0.05 {
		t.Errorf("mmV2V OCR %v above oracle %v", paper.MeanOCR, oracle.MeanOCR)
	}
	var buf bytes.Buffer
	res.WriteTable(&buf)
	if !strings.Contains(buf.String(), "Ablation") {
		t.Error("table missing header")
	}
}

func TestInvalidOptions(t *testing.T) {
	if _, err := Fig6(Fig6Options{}); err == nil {
		t.Error("Fig6 zero options should fail")
	}
	if _, err := Fig7(Fig7Options{}); err == nil {
		t.Error("Fig7 zero options should fail")
	}
	if _, err := Fig8(Fig8Options{}); err == nil {
		t.Error("Fig8 zero options should fail")
	}
	if _, err := Fig9(Fig9Options{}); err == nil {
		t.Error("Fig9 zero options should fail")
	}
	if _, err := Theorem2(Theorem2Options{}); err == nil {
		t.Error("Theorem2 zero options should fail")
	}
	if _, err := Ablation(AblationOptions{}); err == nil {
		t.Error("Ablation zero options should fail")
	}
}

func TestTrucksSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	opts := TrucksOptions{Run: Run{Seed: 1, Trials: 1}, DensityVPL: 15, Fractions: []float64{0, 0.3}}
	res, err := Trucks(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Structural checks only: the single-trial neighbor delta is noisy (the
	// blockage direction is pinned by TestTrucksIncreaseBlockage in the
	// world package and by the multi-trial CLI run).
	clean, ok1 := res.Get(0, "mmV2V")
	heavy, ok2 := res.Get(0.3, "mmV2V")
	if !ok1 || !ok2 {
		t.Fatal("missing mmV2V summaries")
	}
	for _, s := range []float64{clean.Summary.MeanOCR, heavy.Summary.MeanOCR} {
		if s < 0 || s > 1 {
			t.Errorf("OCR out of range: %v", s)
		}
	}
	var buf bytes.Buffer
	res.WriteTable(&buf)
	if !strings.Contains(buf.String(), "truck") {
		t.Error("table missing header")
	}
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestDiscoveryConvergenceMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	opts := Theorem2Options{
		Seed:              1,
		Pairs:             100,
		KValues:           []int{3},
		PValues:           []float64{0.5},
		MeasureInSim:      false,
		ConvergenceFrames: 3,
		DensityVPL:        12,
	}
	res, err := Theorem2(opts)
	if err != nil {
		t.Fatal(err)
	}
	conv := res.ConvergencePerFrame
	if len(conv) != 3 {
		t.Fatalf("convergence series = %v", conv)
	}
	for f := 1; f < len(conv); f++ {
		if conv[f] < conv[f-1]-0.05 {
			t.Errorf("convergence regressed at frame %d: %v", f, conv)
		}
	}
	if conv[2] <= conv[0] {
		t.Errorf("no convergence growth: %v", conv)
	}
	if conv[2] > 1 {
		t.Errorf("ratio above 1: %v", conv)
	}
}

func TestWarmupSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	opts := WarmupOptions{Run: Run{Seed: 1, Trials: 1}, DensityVPL: 12, Windows: 2}
	res, err := Warmup(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Summary.MeanOCR < 0 || row.Summary.MeanOCR > 1 {
			t.Errorf("window %d OCR = %v", row.Window, row.Summary.MeanOCR)
		}
	}
	var buf bytes.Buffer
	res.WriteTable(&buf)
	if !strings.Contains(buf.String(), "cold start") {
		t.Error("table missing header")
	}
	if _, err := Warmup(WarmupOptions{}); err == nil {
		t.Error("zero options should fail")
	}
}
