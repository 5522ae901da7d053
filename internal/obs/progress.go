package obs

// ProgressState is a structured snapshot of how far a run has advanced,
// generalizing the free-text Progress callbacks the experiment runners
// already expose: cells are experiment-grid points, trials are seeds within
// a cell, windows are measurement windows within a trial. Totals of zero
// mean "unknown"; consumers skip that level when estimating completion.
type ProgressState struct {
	// Label names the unit of work most recently finished or started
	// ("fig9/density=120/mmV2V", "trial 3/10", ...).
	Label        string `json:"label,omitempty"`
	CellsDone    int    `json:"cells_done"`
	CellsTotal   int    `json:"cells_total"`
	TrialsDone   int    `json:"trials_done"`
	TrialsTotal  int    `json:"trials_total"`
	WindowsDone  int    `json:"windows_done"`
	WindowsTotal int    `json:"windows_total"`
}

// Fraction estimates completed work in [0, 1] from the finest level with a
// known total: windows, then trials, then cells. It returns 0 when no level
// has a total, and clamps overshoot to 1.
func (p ProgressState) Fraction() float64 {
	frac := 0.0
	switch {
	case p.WindowsTotal > 0:
		frac = float64(p.WindowsDone) / float64(p.WindowsTotal)
	case p.TrialsTotal > 0:
		frac = float64(p.TrialsDone) / float64(p.TrialsTotal)
	case p.CellsTotal > 0:
		frac = float64(p.CellsDone) / float64(p.CellsTotal)
	}
	if frac > 1 {
		frac = 1
	}
	return frac
}
