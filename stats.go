package mmv2v

import (
	"io"

	"mmv2v/internal/obs"
)

// Statistics: set ScenarioConfig.Stats to true and every layer — world,
// medium, faults, SND/DCM/UDT and both baselines — records named counters,
// gauges and histograms into Result.Obs. Per-trial registries merge in
// trial order, so pooled statistics are bit-identical for any worker
// count. With Stats false (the default) every instrumented site is a
// nil-handle no-op. See DESIGN.md §9 for the schema.

// StatsRegistry holds one run's (or one pooled trial set's) statistics.
type StatsRegistry = obs.Registry

// StatsRow is one exported statistic in flattened form.
type StatsRow = obs.Row

// StatsRows flattens a registry into sorted rows under a scope label.
// The registry may be nil (a run with Stats off), yielding no rows.
func StatsRows(r *StatsRegistry, scope string) []StatsRow { return r.Rows(scope) }

// SortStatsRows orders rows by (scope, name) for deterministic export.
func SortStatsRows(rows []StatsRow) { obs.SortRows(rows) }

// WriteStatsJSONL emits one JSON object per row.
func WriteStatsJSONL(w io.Writer, rows []StatsRow) error { return obs.WriteJSONL(w, rows) }

// WriteStatsCSV emits the rows as CSV with a header line.
func WriteStatsCSV(w io.Writer, rows []StatsRow) error { return obs.WriteCSV(w, rows) }

// WriteStatsSummary prints a human-readable statistics table.
func WriteStatsSummary(w io.Writer, rows []StatsRow) { obs.WriteSummary(w, rows) }

// Time series: ScenarioConfig.Stats also samples the registry at every
// window boundary, landing per-window deltas in Result.Series. Per-trial
// series merge in trial order exactly like registries, so exports are
// bit-identical for any worker count. See DESIGN.md §9.

// Series holds one run's (or one pooled trial set's) windowed samples.
type Series = obs.Series

// SeriesPoint is one sampled window: its index plus the registry deltas
// accumulated since the previous sample.
type SeriesPoint = obs.SeriesPoint

// SeriesRow is one exported sample in flattened form.
type SeriesRow = obs.SeriesRow

// SeriesRows flattens sampled points into rows under a scope label,
// window-major. Nil or empty input yields no rows.
func SeriesRows(points []SeriesPoint, scope string) []SeriesRow {
	return obs.SeriesRows(points, scope)
}

// SortSeriesRows orders rows by (scope, window, name, kind) for
// deterministic export of multi-scope collections.
func SortSeriesRows(rows []SeriesRow) { obs.SortSeriesRows(rows) }

// WriteSeriesJSONL emits one JSON object per series row.
func WriteSeriesJSONL(w io.Writer, rows []SeriesRow) error { return obs.WriteSeriesJSONL(w, rows) }

// WriteSeriesCSV emits the series rows as CSV with a header line.
func WriteSeriesCSV(w io.Writer, rows []SeriesRow) error { return obs.WriteSeriesCSV(w, rows) }
