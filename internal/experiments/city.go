package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"mmv2v/internal/sim"
	"mmv2v/internal/traffic"
)

// CityOptions parameterize the city-grid scenario (not in the paper): the
// OHM protocol comparison moved from the straight 1 km road onto a
// Manhattan road-graph network, where intersections, cross-street blockage
// and turning traffic stress discovery and matching differently than
// highway platooning does.
type CityOptions struct {
	Run
	// Grid is the road-network scenario (intersection counts, block length,
	// vehicle count).
	Grid traffic.GridConfig
}

// DefaultCityOptions returns a 3×3-intersection downtown grid with 180
// vehicles — small enough for interactive runs, dense enough that every
// street segment carries traffic. (The 10k-vehicle scale run lives in the
// CLIs, where wall-clock may be measured.)
func DefaultCityOptions() CityOptions {
	g := traffic.DefaultGridConfig(180)
	g.Rows, g.Cols = 3, 3
	g.BlockM = 200
	return CityOptions{
		Run:  Run{Seed: 1, Trials: 3},
		Grid: g,
	}
}

// CityResult is the full city-grid comparison: a protocol grid of one row.
type CityResult struct {
	Opts CityOptions
	Grid
}

// City runs the OHM protocol comparison on the grid network.
func City(opts CityOptions) (*CityResult, error) {
	if opts.Trials <= 0 {
		return nil, fmt.Errorf("experiments: invalid City options %+v", opts)
	}
	if err := opts.Grid.Validate(); err != nil {
		return nil, err
	}
	g, err := opts.grid("city", "", []float64{0}, comparedProtocols(), func(int) sim.Config {
		grid := opts.Grid
		cfg := scenario(15, opts.Seed)
		cfg.Grid = &grid
		return cfg
	})
	if err != nil {
		return nil, err
	}
	return &CityResult{Opts: opts, Grid: g}, nil
}

// WriteTable prints the protocol comparison on the grid.
func (r *CityResult) WriteTable(w io.Writer) {
	g, row := r.Opts.Grid, r.Rows[0]
	writeHeader(w, "City grid — OHM protocols on a Manhattan road network")
	fmt.Fprintf(w, "grid: %dx%d intersections, %g m blocks, %d vehicles, avg |N| %.1f\n",
		g.Rows, g.Cols, g.BlockM, g.Vehicles, row.AvgNeighbors)
	fmt.Fprintf(w, "%-14s %-16s %-10s %-10s\n", "protocol", "OCR", "ATP", "DTP")
	for _, c := range row.Cells {
		fmt.Fprintf(w, "%-14s %-6.3f ±%-7.3f %-10.3f %-10.3f\n",
			c.Protocol, c.Summary.MeanOCR, c.OCRCI95, c.Summary.MeanATP, c.Summary.MeanDTP)
	}
}

// WriteCSV emits rows, cols, block_m, vehicles, avg_neighbors, protocol,
// ocr, ocr_ci95, atp, dtp rows.
func (r *CityResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	rows := [][]string{{"rows", "cols", "block_m", "vehicles", "avg_neighbors", "protocol", "ocr", "ocr_ci95", "atp", "dtp"}}
	g, row := r.Opts.Grid, r.Rows[0]
	for _, c := range row.Cells {
		rows = append(rows, []string{
			strconv.Itoa(g.Rows), strconv.Itoa(g.Cols), f(g.BlockM), strconv.Itoa(g.Vehicles),
			f(row.AvgNeighbors), c.Protocol,
			f(c.Summary.MeanOCR), f(c.OCRCI95), f(c.Summary.MeanATP), f(c.Summary.MeanDTP),
		})
	}
	return writeAll(cw, rows)
}
