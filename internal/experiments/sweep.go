package experiments

import (
	"fmt"
	"io"

	"mmv2v/internal/core"
	"mmv2v/internal/metrics"
	"mmv2v/internal/sim"
)

// Fig7Options parameterize the Fig. 7 study: CDFs of OCR and ATP for
// different numbers of neighbor discovery rounds K (paper: K = 1..4 at
// 20 vpl with M = 40, repeated trials, metrics at the end of each second).
type Fig7Options struct {
	Run
	DensityVPL float64
	KValues    []int
	M          int
	// CurvePoints samples each CDF for printing.
	CurvePoints int
}

// DefaultFig7Options returns the paper's configuration (with fewer trials
// than the paper's 100 by default; raise Trials to match).
func DefaultFig7Options() Fig7Options {
	return Fig7Options{
		Run:         Run{Seed: 1, Trials: 5},
		DensityVPL:  20,
		KValues:     []int{1, 2, 3, 4},
		M:           40,
		CurvePoints: 11,
	}
}

// Fig8Options parameterize the Fig. 8 study: CDFs of OCR and ATP for
// different numbers of negotiation slots M (paper: M = 20..80 step 20 at
// 20 vpl with K = 3).
type Fig8Options struct {
	Run
	DensityVPL  float64
	MValues     []int
	K           int
	CurvePoints int
}

// DefaultFig8Options returns the paper's configuration.
func DefaultFig8Options() Fig8Options {
	return Fig8Options{
		Run:         Run{Seed: 1, Trials: 5},
		DensityVPL:  20,
		MValues:     []int{20, 40, 60, 80},
		K:           3,
		CurvePoints: 11,
	}
}

// Curve holds one swept value's pooled distribution.
type Curve struct {
	Value   int
	MeanOCR float64
	MeanATP float64
	OCRCDF  metrics.CDF
	ATPCDF  metrics.CDF
}

// Sweep is a CDF study of OCR and ATP over one mmV2V parameter: Fig. 7
// sweeps the discovery rounds K, Fig. 8 the negotiation slots M.
type Sweep struct {
	// Title heads the printed table.
	Title string
	// Param is the swept parameter's letter.
	Param string
	// CurvePoints samples each CDF for printing.
	CurvePoints int
	Curves      []Curve
	// width is the print width of the swept values.
	width int
}

// Fig7 runs the Fig. 7 study.
func Fig7(opts Fig7Options) (*Sweep, error) {
	if opts.Trials <= 0 || len(opts.KValues) == 0 {
		return nil, fmt.Errorf("experiments: invalid Fig7 options %+v", opts)
	}
	s := &Sweep{Title: "Fig. 7 — effect of discovery rounds K (CDFs of OCR and ATP)",
		Param: "K", CurvePoints: opts.CurvePoints, width: 2}
	if err := s.run(opts.Run, "fig7", opts.DensityVPL, opts.KValues, func(p *core.Params, k int) {
		p.K, p.M = k, opts.M
	}); err != nil {
		return nil, err
	}
	return s, nil
}

// Fig8 runs the Fig. 8 study.
func Fig8(opts Fig8Options) (*Sweep, error) {
	if opts.Trials <= 0 || len(opts.MValues) == 0 {
		return nil, fmt.Errorf("experiments: invalid Fig8 options %+v", opts)
	}
	s := &Sweep{Title: "Fig. 8 — effect of negotiation slots M (CDFs of OCR and ATP)",
		Param: "M", CurvePoints: opts.CurvePoints, width: 3}
	if err := s.run(opts.Run, "fig8", opts.DensityVPL, opts.MValues, func(p *core.Params, m int) {
		p.K, p.M = opts.K, m
	}); err != nil {
		return nil, err
	}
	return s, nil
}

// run measures one curve per value, each a cell whose mmV2V parameters are
// the paper's with the value applied by set; name prefixes the cells'
// progress labels.
func (s *Sweep) run(opts Run, name string, density float64, values []int, set func(p *core.Params, v int)) error {
	s.Curves = make([]Curve, len(values))
	return opts.cells(len(values), func(i int) (sim.Config, sim.Factory) {
		params := core.DefaultParams()
		set(&params, values[i])
		return scenario(density, opts.Seed), core.Factory(params)
	}, func(i int, pooled *sim.Result) string {
		var ocrs, atps []float64
		for _, st := range pooled.Stats {
			ocrs = append(ocrs, st.OCR)
			atps = append(atps, st.ATP)
		}
		s.Curves[i] = Curve{
			Value:   values[i],
			MeanOCR: pooled.Summary.MeanOCR,
			MeanATP: pooled.Summary.MeanATP,
			OCRCDF:  metrics.NewCDF(ocrs),
			ATPCDF:  metrics.NewCDF(atps),
		}
		return fmt.Sprintf("%s %s=%d", name, s.Param, values[i])
	})
}

// Best returns the swept value with the highest mean OCR (paper: K = 3 in
// Fig. 7, M = 40 in Fig. 8).
func (s *Sweep) Best() int {
	best, bestOCR := 0, -1.0
	for _, c := range s.Curves {
		if c.MeanOCR > bestOCR {
			best, bestOCR = c.Value, c.MeanOCR
		}
	}
	return best
}

// WriteTable prints the means and the CDF curves (x, P(X≤x)).
func (s *Sweep) WriteTable(w io.Writer) {
	writeHeader(w, s.Title)
	fmt.Fprintf(w, "%-*s  %-9s %-9s\n", s.width+2, s.Param, "mean OCR", "mean ATP")
	for _, c := range s.Curves {
		fmt.Fprintf(w, "%s=%-*d  %-9.3f %-9.3f\n", s.Param, s.width, c.Value, c.MeanOCR, c.MeanATP)
	}
	s.writeCDFs(w, "OCR CDF", func(c Curve) metrics.CDF { return c.OCRCDF })
	s.writeCDFs(w, "ATP CDF", func(c Curve) metrics.CDF { return c.ATPCDF })
}

// writeCDFs prints one CDF per curve, sampled on a common [0, 1] grid.
func (s *Sweep) writeCDFs(w io.Writer, title string, cdf func(Curve) metrics.CDF) {
	points := max(s.CurvePoints, 2)
	fmt.Fprintf(w, "%s:\n%-8s", title, "x")
	for _, c := range s.Curves {
		fmt.Fprintf(w, "  %-6s", fmt.Sprintf("%s=%d", s.Param, c.Value))
	}
	fmt.Fprintln(w)
	for p := 0; p < points; p++ {
		x := float64(p) / float64(points-1)
		fmt.Fprintf(w, "%-8.2f", x)
		for _, c := range s.Curves {
			fmt.Fprintf(w, "  %-6.3f", cdf(c).P(x))
		}
		fmt.Fprintln(w)
	}
}
