// Time dimension of the stats registry (DESIGN.md §9): a Series samples a
// registry at measurement-window boundaries and stores, per window, the
// delta of every metric since the previous sample — the per-interval trace
// stream mmWave simulators treat as the primary experiment output.
//
// Sampling is pull-based and allocation-bounded: the window loop calls
// Sample once per window, after the window's events have run, so a series
// never observes a half-executed window. Like the
// cumulative registry, series merge slot-per-trial (MergeSeries mirrors
// Merge/metrics.Merge): integer deltas are order-free and float sums fold
// in slot order, so pooled series exports are bit-identical for any worker
// count.
//
// Delta semantics per kind:
//
//   - counter: Count is the window's increment;
//   - gauge: Count and Sum are window deltas; Min and Max are cumulative up
//     to and including the window (extrema are not delta-able);
//   - histogram: Count, Sum and every bucket count are window deltas.
//
// Metrics with no activity in a window (zero count delta) are omitted from
// that window's rows, so idle windows stay cheap and exports stay dense.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
)

// SeriesPoint is one window's sampled deltas: rows sorted by (name, kind),
// scope left empty (exports stamp it).
type SeriesPoint struct {
	Window int
	Rows   []Row
}

// Series accumulates windowed registry deltas. The zero value is not ready;
// create with NewSeries. A nil *Series ignores Sample and yields no points,
// so "series disabled" propagates like a nil Registry.
type Series struct {
	// prev is the cumulative row snapshot at the last sample; the next
	// sample's deltas are computed against it.
	prev []Row
	// points are the sampled windows in sample (= window) order.
	points []SeriesPoint
}

// NewSeries returns an empty series.
func NewSeries() *Series { return &Series{} }

// Sample records the registry's delta since the previous Sample call as the
// given window's point. A nil series or nil registry is a no-op (an empty
// registry still appends an empty point, keeping window indices aligned).
func (s *Series) Sample(window int, r *Registry) {
	if s == nil || r == nil {
		return
	}
	cur := r.Rows("")
	s.points = append(s.points, SeriesPoint{Window: window, Rows: deltaRows(cur, s.prev)})
	s.prev = cur
}

// Points returns a copy of the sampled points. Rows inside points are never
// mutated after sampling, so the returned slice is safe to publish to
// concurrent readers.
func (s *Series) Points() []SeriesPoint {
	if s == nil {
		return nil
	}
	return append([]SeriesPoint(nil), s.points...)
}

// Len returns the number of sampled windows.
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	return len(s.points)
}

// deltaRows computes per-metric deltas of cur against prev (both sorted by
// (name, kind)). Metrics absent from prev delta against zero; metrics with
// a zero count delta are dropped.
func deltaRows(cur, prev []Row) []Row {
	prevBy := make(map[string]Row, len(prev))
	for _, row := range prev {
		prevBy[row.Name+"\x00"+row.Kind] = row
	}
	var out []Row
	for _, row := range cur {
		p, ok := prevBy[row.Name+"\x00"+row.Kind]
		if !ok {
			if row.Count == 0 {
				continue
			}
			out = append(out, row)
			continue
		}
		d := row
		d.Count -= p.Count
		if d.Count == 0 {
			continue
		}
		d.Sum -= p.Sum
		// Min/Max stay cumulative: row already carries the extrema to date.
		if len(p.Buckets) == len(row.Buckets) {
			d.Buckets = make([]BucketCount, len(row.Buckets))
			for k := range row.Buckets {
				d.Buckets[k] = BucketCount{LE: row.Buckets[k].LE, N: row.Buckets[k].N - p.Buckets[k].N}
			}
		}
		out = append(out, d)
	}
	return out
}

// MergeRows pools row snapshots by (scope, name, kind) in slot order:
// counts and bucket counts sum, float sums fold in slot order, extrema take
// min/max. Histogram bucket schemas must match, exactly like Registry
// merging. The result is sorted by (scope, name, kind).
func MergeRows(parts [][]Row) []Row {
	merged := make(map[string]*Row)
	var order []string
	for _, rows := range parts {
		for _, row := range rows {
			key := row.Scope + "\x00" + row.Name + "\x00" + row.Kind
			dst, ok := merged[key]
			if !ok {
				cp := row
				cp.Buckets = append([]BucketCount(nil), row.Buckets...)
				merged[key] = &cp
				order = append(order, key)
				continue
			}
			if row.Count > 0 {
				if dst.Count == 0 || row.Min < dst.Min {
					dst.Min = row.Min
				}
				if dst.Count == 0 || row.Max > dst.Max {
					dst.Max = row.Max
				}
			}
			dst.Count += row.Count
			dst.Sum += row.Sum
			if len(row.Buckets) > 0 {
				if len(dst.Buckets) != len(row.Buckets) {
					panic(fmt.Sprintf("obs: histogram %q bucket schema mismatch in row merge (%d vs %d buckets)",
						row.Name, len(dst.Buckets), len(row.Buckets)))
				}
				for k := range row.Buckets {
					dst.Buckets[k].N += row.Buckets[k].N
				}
			}
		}
	}
	out := make([]Row, 0, len(order))
	for _, key := range order {
		out = append(out, *merged[key])
	}
	sortRows(out)
	return out
}

// MergePoints pools per-trial point lists window by window in slot order:
// window k's merged rows are the MergeRows of every part's window-k rows.
// The result covers the union of windows, ascending.
func MergePoints(parts [][]SeriesPoint) []SeriesPoint {
	byWindow := make(map[int][][]Row)
	var windows []int
	for _, points := range parts {
		for _, pt := range points {
			if _, ok := byWindow[pt.Window]; !ok {
				windows = append(windows, pt.Window)
			}
			byWindow[pt.Window] = append(byWindow[pt.Window], pt.Rows)
		}
	}
	sort.Ints(windows)
	out := make([]SeriesPoint, 0, len(windows))
	for _, win := range windows {
		out = append(out, SeriesPoint{Window: win, Rows: MergeRows(byWindow[win])})
	}
	return out
}

// MergeSeries pools per-trial series in slot (= trial) order, skipping nil
// slots, and returns nil when every part is nil — exactly like Merge for
// registries, so "series disabled" propagates through the trial runner. The
// merged result depends only on slot contents and order, never on which
// trial finished first.
func MergeSeries(parts []*Series) *Series {
	var pointParts [][]SeriesPoint
	var prevParts [][]Row
	for _, p := range parts {
		if p == nil {
			continue
		}
		pointParts = append(pointParts, p.points)
		prevParts = append(prevParts, p.prev)
	}
	if pointParts == nil {
		return nil
	}
	return &Series{prev: MergeRows(prevParts), points: MergePoints(pointParts)}
}

// SeriesRow is one metric's delta in one window, flattened for export.
// Scope and Window lead every export, so the embedded Row carries the
// metric with its own Scope left empty.
type SeriesRow struct {
	Scope  string `json:"scope,omitempty"`
	Window int    `json:"window"`
	Row
}

// SeriesRows flattens points into export rows, all stamped with the given
// scope: window-major, then (name, kind) within a window.
func SeriesRows(points []SeriesPoint, scope string) []SeriesRow {
	var out []SeriesRow
	for _, pt := range points {
		for _, row := range pt.Rows {
			out = append(out, SeriesRow{Scope: scope, Window: pt.Window, Row: row})
		}
	}
	return out
}

// SortSeriesRows orders a concatenation of series exports by (scope,
// window, name, kind) — used when pooling several experiment cells' series
// into one file.
func SortSeriesRows(rows []SeriesRow) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Scope != b.Scope {
			return a.Scope < b.Scope
		}
		if a.Window != b.Window {
			return a.Window < b.Window
		}
		return rowLess(a.Row, b.Row)
	})
}

// WriteSeriesJSONL writes series rows as JSON Lines in slice order.
func WriteSeriesJSONL(w io.Writer, rows []SeriesRow) error { return writeJSONL(w, rows) }

// WriteSeriesCSV writes series rows as CSV with a fixed header; histogram
// buckets render in one column as "le=n;le=n;...", like WriteCSV.
func WriteSeriesCSV(w io.Writer, rows []SeriesRow) error {
	return writeCSV(w, "scope,window", rows, func(r SeriesRow) (string, Row) {
		return r.Scope + "," + strconv.Itoa(r.Window), r.Row
	})
}
