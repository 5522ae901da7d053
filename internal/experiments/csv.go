package experiments

import (
	"encoding/csv"
	"io"
	"math"
	"strconv"
	"strings"
)

// The WriteCSV methods emit each experiment in long format (one observation
// per row), the layout plotting tools consume directly.

func writeAll(cw *csv.Writer, rows [][]string) error {
	for _, row := range rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func f(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }

// WriteCSV emits density, avg_neighbors, c, slot, capacity_bps rows.
func (r *Fig6Result) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	rows := [][]string{{"density_vpl", "avg_neighbors", "c", "slot", "capacity_bps"}}
	for _, sc := range r.Scenarios {
		for _, s := range sc.Series {
			for m, cap := range s.CapacityBps {
				rows = append(rows, []string{
					f(sc.DensityVPL), f(sc.AvgNeighbors),
					strconv.Itoa(s.C), strconv.Itoa(m + 1), f(cap),
				})
			}
		}
	}
	return writeAll(cw, rows)
}

// WriteCSV emits <param>, metric, x, value rows: per curve, the two means
// (x empty) and the sampled OCR and ATP CDFs.
func (s *Sweep) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	rows := [][]string{{strings.ToLower(s.Param), "metric", "x", "value"}}
	pts := s.CurvePoints
	if pts < 2 {
		pts = 11
	}
	for _, c := range s.Curves {
		v := strconv.Itoa(c.Value)
		rows = append(rows,
			[]string{v, "mean_ocr", "", f(c.MeanOCR)},
			[]string{v, "mean_atp", "", f(c.MeanATP)})
		for p := 0; p < pts; p++ {
			x := float64(p) / float64(pts-1)
			rows = append(rows,
				[]string{v, "ocr_cdf", f(x), f(c.OCRCDF.P(x))},
				[]string{v, "atp_cdf", f(x), f(c.ATPCDF.P(x))})
		}
	}
	return writeAll(cw, rows)
}

// WriteCSV emits p, k, analytic, empirical, sim rows (sim only for p=0.5).
func (r *Theorem2Result) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	rows := [][]string{{"p", "k", "analytic", "empirical", "in_sim"}}
	for _, c := range r.Cells {
		inSim := ""
		//mmv2v:exact grid lookup: cell P values are exact literals from the sweep definition, never computed
		if c.P == 0.5 {
			if v, ok := r.SimRatioPerK[c.K]; ok {
				inSim = f(v)
			}
		}
		rows = append(rows, []string{f(c.P), strconv.Itoa(c.K), f(c.Analytic), f(c.Empirical), inSim})
	}
	return writeAll(cw, rows)
}

// WriteCSV emits intensity, protocol, ocr, atp, dtp, latency_sec, trials,
// failures rows.
func (r *FaultsResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	rows := [][]string{{"intensity", "protocol", "ocr", "atp", "dtp",
		"first_exchange_sec", "trials", "failures"}}
	for _, row := range r.Rows {
		for _, c := range row.Cells {
			lat := ""
			if !math.IsNaN(c.MeanLatencySec) {
				lat = f(c.MeanLatencySec)
			}
			rows = append(rows, []string{
				f(row.At), c.Protocol,
				f(c.Summary.MeanOCR), f(c.Summary.MeanATP), f(c.Summary.MeanDTP),
				lat, strconv.Itoa(c.Trials), strconv.Itoa(c.Failures),
			})
		}
	}
	return writeAll(cw, rows)
}

// WriteCSV emits variant, ocr, atp, dtp rows.
func (r *AblationResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	rows := [][]string{{"variant", "ocr", "atp", "dtp"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Variant, f(row.Summary.MeanOCR), f(row.Summary.MeanATP), f(row.Summary.MeanDTP),
		})
	}
	return writeAll(cw, rows)
}

// WriteCSV emits window, ocr, atp, dtp rows, windows numbered from 1 as in
// the table.
func (r *WarmupResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	rows := [][]string{{"window", "ocr", "atp", "dtp"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			strconv.Itoa(row.Window + 1), f(row.Summary.MeanOCR), f(row.Summary.MeanATP), f(row.Summary.MeanDTP),
		})
	}
	return writeAll(cw, rows)
}
