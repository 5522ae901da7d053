package experiments

import (
	"bytes"
	"encoding/csv"
	"reflect"
	"strings"
	"testing"

	"mmv2v/internal/metrics"
)

func parseCSV(t *testing.T, s string) [][]string {
	t.Helper()
	rows, err := csv.NewReader(strings.NewReader(s)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestFig6CSV(t *testing.T) {
	r := &Fig6Result{
		Opts: Fig6Options{MaxSlots: 2},
		Scenarios: []Fig6Scenario{{
			DensityVPL:   12,
			AvgNeighbors: 5.2,
			Series:       []Fig6Series{{C: 7, CapacityBps: []float64{1e9, 2e9}}},
		}},
	}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, buf.String())
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0][0] != "density_vpl" {
		t.Errorf("header = %v", rows[0])
	}
	if rows[2][3] != "2" || rows[2][4] != "2e+09" {
		t.Errorf("last row = %v", rows[2])
	}
}

func TestFig7CSV(t *testing.T) {
	r := &Sweep{
		Param:       "K",
		CurvePoints: 3,
		Curves: []Curve{{
			Value: 3, MeanOCR: 0.7, MeanATP: 0.8,
			OCRCDF: metrics.NewCDF([]float64{0.5, 1.0}),
			ATPCDF: metrics.NewCDF([]float64{0.6, 0.9}),
		}},
	}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, buf.String())
	// header + 2 means + 3 points × 2 metrics = 9
	if len(rows) != 9 {
		t.Fatalf("rows = %d: %v", len(rows), rows)
	}
	if rows[0][0] != "k" {
		t.Errorf("header = %v", rows[0])
	}
	if rows[1][1] != "mean_ocr" || rows[1][3] != "0.7" {
		t.Errorf("mean row = %v", rows[1])
	}
}

func TestFig8CSV(t *testing.T) {
	r := &Sweep{
		Param:       "M",
		CurvePoints: 2,
		Curves: []Curve{{
			Value: 40, MeanOCR: 0.6, MeanATP: 0.7,
			OCRCDF: metrics.NewCDF([]float64{1}),
			ATPCDF: metrics.NewCDF([]float64{1}),
		}},
	}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, buf.String())
	if len(rows) != 7 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0][0] != "m" || rows[1][0] != "40" {
		t.Errorf("rows = %v", rows)
	}
}

func TestFig9CSV(t *testing.T) {
	r := &Fig9Result{Grid: Grid{
		Protocols: []string{"mmV2V"},
		Rows: []GridRow{{
			At:           15,
			AvgNeighbors: 6.7,
			Cells: []Cell{{
				Protocol: "mmV2V",
				Summary:  metrics.Summary{MeanOCR: 0.72, MeanATP: 0.73, MeanDTP: 0.39},
			}},
		}},
	}}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, buf.String())
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1][2] != "mmV2V" || rows[1][3] != "0.72" {
		t.Errorf("row = %v", rows[1])
	}
}

// TestTrucksCSV checks that the truck study labels its first column with
// what it sweeps, the truck share, not Fig. 9's density.
func TestTrucksCSV(t *testing.T) {
	r := &TrucksResult{Grid: Grid{
		Protocols: []string{"mmV2V"},
		Rows: []GridRow{{
			At:           0.2,
			AvgNeighbors: 8.5,
			Cells: []Cell{{
				Protocol: "mmV2V",
				Summary:  metrics.Summary{MeanOCR: 0.7, MeanATP: 0.72, MeanDTP: 0.38},
			}},
		}},
	}}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, buf.String())
	want := [][]string{
		{"truck_share", "avg_neighbors", "protocol", "ocr", "atp", "dtp"},
		{"0.2", "8.5", "mmV2V", "0.7", "0.72", "0.38"},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("rows = %v, want %v", rows, want)
	}
}

func TestTheorem2CSV(t *testing.T) {
	r := &Theorem2Result{
		Cells: []Theorem2Cell{
			{P: 0.5, K: 3, Analytic: 0.875, Empirical: 0.874},
			{P: 0.3, K: 3, Analytic: 0.8, Empirical: 0.81},
		},
		SimRatioPerK: map[int]float64{3: 0.62},
	}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, buf.String())
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1][4] != "0.62" {
		t.Errorf("p=0.5 row missing in-sim value: %v", rows[1])
	}
	if rows[2][4] != "" {
		t.Errorf("p=0.3 row should have empty in-sim: %v", rows[2])
	}
}

func TestAblationCSV(t *testing.T) {
	r := &AblationResult{
		Rows: []AblationRow{{
			Variant: "mmV2V (paper config)",
			Summary: metrics.Summary{MeanOCR: 0.6, MeanATP: 0.65, MeanDTP: 0.4},
		}},
	}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, buf.String())
	if len(rows) != 2 || rows[1][0] != "mmV2V (paper config)" {
		t.Errorf("rows = %v", rows)
	}
}

func TestWarmupCSV(t *testing.T) {
	r := &WarmupResult{
		Rows: []WarmupRow{
			{Window: 0, Summary: metrics.Summary{MeanOCR: 0.5, MeanATP: 0.55, MeanDTP: 0.3}},
			{Window: 1, Summary: metrics.Summary{MeanOCR: 0.6, MeanATP: 0.65, MeanDTP: 0.35}},
		},
	}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, buf.String())
	want := [][]string{
		{"window", "ocr", "atp", "dtp"},
		{"1", "0.5", "0.55", "0.3"},
		{"2", "0.6", "0.65", "0.35"},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("rows = %v, want %v", rows, want)
	}
}
