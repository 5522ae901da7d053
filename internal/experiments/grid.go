package experiments

import (
	"encoding/csv"
	"fmt"
	"io"

	"mmv2v/internal/baseline"
	"mmv2v/internal/core"
	"mmv2v/internal/metrics"
	"mmv2v/internal/obs"
	"mmv2v/internal/sim"
)

// Cell is one protocol's pooled measurement at one point of a Grid.
type Cell struct {
	Protocol string
	Summary  metrics.Summary
	// OCRCI95 is the half-width of the 95 % CI over per-vehicle OCR.
	OCRCI95 float64
	// MeanLatencySec is the mean time from window start to each neighbor
	// pair's first exchanged bit (NaN when nothing was exchanged).
	MeanLatencySec float64
	// Trials and Failures echo the crash-isolation summary of the cell's
	// pooled run.
	Trials   int
	Failures int
	// Obs and Series are the cell's pooled layer statistics and windowed
	// samples (nil unless the study ran with Stats).
	Obs    *obs.Registry
	Series *obs.Series
}

// GridRow is one sweep point's measurements, one cell per protocol.
type GridRow struct {
	// At is the swept value: density, truck share or fault intensity.
	At float64
	// AvgNeighbors is the mean LOS neighbor count. Traffic and the world do
	// not depend on the protocol, so every cell of the row measures the
	// same count.
	AvgNeighbors float64
	Cells        []Cell
}

// Grid is a protocol comparison over one swept scenario parameter: Fig. 9
// over traffic density, the truck study over truck share, the fault sweep
// over fault intensity, and the city study at its one road network.
type Grid struct {
	Protocols []string
	Rows      []GridRow
	// name and axis label the cells (see label).
	name, axis string
}

// comparedProtocols returns the factories of the three schemes the paper
// compares, in table order: mmV2V, ROP and IEEE 802.11ad.
func comparedProtocols() []sim.Factory {
	return []sim.Factory{
		core.Factory(core.DefaultParams()),
		baseline.ROPFactory(baseline.DefaultROPParams()),
		baseline.ADFactory(baseline.DefaultADParams()),
	}
}

// grid runs one cell per (row, protocol) pair: row ri is the scenario
// config(ri) at sweep value at[ri], run once per factory. name and axis
// label the cells' progress reports and statistics scopes.
func (r Run) grid(name, axis string, at []float64, factories []sim.Factory, config func(ri int) sim.Config) (Grid, error) {
	g := Grid{Rows: make([]GridRow, len(at)), name: name, axis: axis}
	nf := len(factories)
	for ri := range g.Rows {
		g.Rows[ri] = GridRow{At: at[ri], Cells: make([]Cell, nf)}
	}
	err := r.cells(len(at)*nf, func(k int) (sim.Config, sim.Factory) {
		return config(k / nf), factories[k%nf]
	}, func(k int, pooled *sim.Result) string {
		row := &g.Rows[k/nf]
		row.Cells[k%nf] = newCell(pooled)
		if k%nf == 0 {
			row.AvgNeighbors = pooled.AvgNeighbors
		}
		return g.label(row.At, pooled.Protocol, " ")
	})
	if err != nil {
		return Grid{}, err
	}
	for _, c := range g.Rows[0].Cells {
		g.Protocols = append(g.Protocols, c.Protocol)
	}
	return g, nil
}

// newCell summarizes one cell's pooled run.
func newCell(pooled *sim.Result) Cell {
	ocrs := make([]float64, 0, len(pooled.Stats))
	for _, st := range pooled.Stats {
		ocrs = append(ocrs, st.OCR)
	}
	_, ci := metrics.MeanCI95(ocrs)
	return Cell{
		Protocol:       pooled.Protocol,
		Summary:        pooled.Summary,
		OCRCI95:        ci,
		MeanLatencySec: pooled.MeanLatencySec(),
		Trials:         pooled.Trials,
		Failures:       len(pooled.Failures),
		Obs:            pooled.Obs,
		Series:         pooled.Series,
	}
}

// label names a cell "<name> <axis>=<at> <protocol>" with sep " " for
// progress reports, and "<name>/<axis>=<at>/<protocol>" with sep "/" for
// statistics scopes. A grid without an axis has one row and leaves out
// the "<axis>=<at>" part.
func (g *Grid) label(at float64, protocol, sep string) string {
	if g.axis == "" {
		return g.name + sep + protocol
	}
	return fmt.Sprintf("%s%s%s=%g%s%s", g.name, sep, g.axis, at, sep, protocol)
}

// Get returns a protocol's cell at a sweep value.
func (g *Grid) Get(at float64, protocol string) (Cell, bool) {
	for _, row := range g.Rows {
		//mmv2v:exact grid lookup: sweep values are exact option literals carried through unmodified
		if row.At != at {
			continue
		}
		for _, c := range row.Cells {
			if c.Protocol == protocol {
				return c, true
			}
		}
	}
	return Cell{}, false
}

// StatsRows exports every cell's layer statistics (when the study ran with
// Stats), each row scoped "<name>/<axis>=<at>/<protocol>" — for example
// "fig9/density=15/mmV2V" — and sorted by (scope, name, kind). Nil-Obs
// cells contribute nothing.
func (g *Grid) StatsRows() []obs.Row {
	var rows []obs.Row
	for _, row := range g.Rows {
		for _, c := range row.Cells {
			rows = append(rows, c.Obs.Rows(g.label(row.At, c.Protocol, "/"))...)
		}
	}
	obs.SortRows(rows)
	return rows
}

// SeriesRows exports every cell's windowed samples (when the study ran with
// Stats), scoped like StatsRows and sorted by (scope, window, name, kind).
// Nil-Series cells contribute nothing.
func (g *Grid) SeriesRows() []obs.SeriesRow {
	var rows []obs.SeriesRow
	for _, row := range g.Rows {
		for _, c := range row.Cells {
			rows = append(rows, obs.SeriesRows(c.Series.Points(), g.label(row.At, c.Protocol, "/"))...)
		}
	}
	obs.SortSeriesRows(rows)
	return rows
}

// writeCSV emits <first>, avg_neighbors, protocol, ocr, atp, dtp rows, the
// sweep value in the first column, which the study names.
func (g *Grid) writeCSV(w io.Writer, first string) error {
	cw := csv.NewWriter(w)
	rows := [][]string{{first, "avg_neighbors", "protocol", "ocr", "atp", "dtp"}}
	for _, row := range g.Rows {
		for _, c := range row.Cells {
			rows = append(rows, []string{
				f(row.At), f(row.AvgNeighbors), c.Protocol,
				f(c.Summary.MeanOCR), f(c.Summary.MeanATP), f(c.Summary.MeanDTP),
			})
		}
	}
	return writeAll(cw, rows)
}
