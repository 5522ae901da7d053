// Export surface of the stats registry: stable Row snapshots plus JSONL,
// CSV and human-readable summary renderings. All three are deterministic —
// rows sort by (name, kind) and floats format with strconv's shortest
// round-trip representation — so byte-comparing two exports is a valid
// determinism check.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Metric kinds as they appear in exported rows.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindHistogram = "histogram"
)

// BucketCount is one histogram bucket in an exported row: the upper bound
// (inclusive; "+Inf" for the overflow bucket) and its count.
type BucketCount struct {
	LE string `json:"le"`
	N  uint64 `json:"n"`
}

// Row is one metric's exported snapshot. Scope labels the run or experiment
// cell the metric came from (e.g. "fig9/density=15/mmV2V"); Count/Sum/Min/
// Max carry the kind's aggregates (a counter uses Count only).
type Row struct {
	Scope   string        `json:"scope,omitempty"`
	Name    string        `json:"name"`
	Kind    string        `json:"kind"`
	Count   uint64        `json:"count"`
	Sum     float64       `json:"sum"`
	Min     float64       `json:"min"`
	Max     float64       `json:"max"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Rows snapshots every metric as a Row, sorted by (name, kind), all stamped
// with the given scope. A nil registry yields nil.
func (r *Registry) Rows(scope string) []Row {
	if r == nil {
		return nil
	}
	out := make([]Row, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	//mmv2v:sorted pure row collection; sorted below before any rendering
	for name, c := range r.counters {
		out = append(out, Row{Scope: scope, Name: name, Kind: KindCounter, Count: c.n})
	}
	//mmv2v:sorted pure row collection; sorted below before any rendering
	for name, g := range r.gauges {
		row := Row{Scope: scope, Name: name, Kind: KindGauge, Count: g.count, Sum: g.sum}
		if g.count > 0 {
			row.Min = g.min
			row.Max = g.max
		}
		out = append(out, row)
	}
	//mmv2v:sorted pure row collection; sorted below before any rendering
	for name, h := range r.hists {
		row := Row{Scope: scope, Name: name, Kind: KindHistogram, Count: h.count, Sum: h.sum}
		row.Buckets = make([]BucketCount, 0, len(h.counts))
		for k, n := range h.counts {
			le := "+Inf"
			if k < len(h.bounds) {
				le = formatFloat(h.bounds[k])
			}
			row.Buckets = append(row.Buckets, BucketCount{LE: le, N: n})
		}
		out = append(out, row)
	}
	sortRows(out)
	return out
}

// sortRows orders rows by (scope, name, kind) — the stable export order.
func sortRows(rows []Row) {
	sort.Slice(rows, func(i, j int) bool { return rowLess(rows[i], rows[j]) })
}

// rowLess reports whether a sorts before b in (scope, name, kind) order.
func rowLess(a, b Row) bool {
	if a.Scope != b.Scope {
		return a.Scope < b.Scope
	}
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	return a.Kind < b.Kind
}

// SortRows orders a concatenation of row snapshots by (scope, name, kind) —
// used when pooling rows from several experiment cells into one export.
func SortRows(rows []Row) { sortRows(rows) }

// formatFloat renders a float with the shortest representation that
// round-trips — the deterministic format used by CSV and summary output.
func formatFloat(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// WriteJSONL writes rows as JSON Lines in slice order.
func WriteJSONL(w io.Writer, rows []Row) error { return writeJSONL(w, rows) }

// writeJSONL writes rows of any export type as JSON Lines in slice order.
func writeJSONL[T any](w io.Writer, rows []T) error {
	enc := json.NewEncoder(w)
	for _, row := range rows {
		if err := enc.Encode(row); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV writes rows as CSV with a fixed header. Histogram buckets render
// in one column as "le=n;le=n;...".
func WriteCSV(w io.Writer, rows []Row) error {
	return writeCSV(w, "scope", rows, func(r Row) (string, Row) { return r.Scope, r })
}

// writeCSV writes rows of any export type as CSV: split returns a row's
// leading key columns (named by keyHeader) and the metric whose name, kind
// and aggregates fill the remaining columns.
func writeCSV[T any](w io.Writer, keyHeader string, rows []T, split func(T) (key string, m Row)) error {
	if _, err := fmt.Fprintln(w, keyHeader+",name,kind,count,sum,min,max,buckets"); err != nil {
		return err
	}
	for _, row := range rows {
		key, m := split(row)
		var buckets strings.Builder
		for k, b := range m.Buckets {
			if k > 0 {
				_ = buckets.WriteByte(';') // strings.Builder never errors
			}
			fmt.Fprintf(&buckets, "%s=%d", b.LE, b.N)
		}
		if _, err := fmt.Fprintf(w, "%s,%s,%s,%d,%s,%s,%s,%s\n",
			key, m.Name, m.Kind, m.Count,
			formatFloat(m.Sum), formatFloat(m.Min), formatFloat(m.Max),
			buckets.String()); err != nil {
			return err
		}
	}
	return nil
}

// WriteSummary renders rows as a human-readable aligned table: counters show
// their count, gauges count/sum/mean/min/max, histograms count/sum/mean plus
// a bucket breakdown line. Rows render in slice order.
func WriteSummary(w io.Writer, rows []Row) {
	if len(rows) == 0 {
		fmt.Fprintln(w, "no statistics recorded")
		return
	}
	nameW := len("name")
	for _, row := range rows {
		label := row.Name
		if row.Scope != "" {
			label = row.Scope + " " + row.Name
		}
		if len(label) > nameW {
			nameW = len(label)
		}
	}
	fmt.Fprintf(w, "%-*s  %-9s %12s %14s %14s %14s %14s\n",
		nameW, "name", "kind", "count", "sum", "mean", "min", "max")
	for _, row := range rows {
		label := row.Name
		if row.Scope != "" {
			label = row.Scope + " " + row.Name
		}
		switch row.Kind {
		case KindCounter:
			fmt.Fprintf(w, "%-*s  %-9s %12d %14s %14s %14s %14s\n",
				nameW, label, row.Kind, row.Count, "-", "-", "-", "-")
		case KindGauge:
			fmt.Fprintf(w, "%-*s  %-9s %12d %14s %14s %14s %14s\n",
				nameW, label, row.Kind, row.Count,
				summaryFloat(row.Sum), summaryMean(row.Sum, row.Count),
				summaryFloat(row.Min), summaryFloat(row.Max))
		case KindHistogram:
			fmt.Fprintf(w, "%-*s  %-9s %12d %14s %14s %14s %14s\n",
				nameW, label, row.Kind, row.Count,
				summaryFloat(row.Sum), summaryMean(row.Sum, row.Count), "-", "-")
			var b strings.Builder
			for k, bc := range row.Buckets {
				if k > 0 {
					_ = b.WriteByte(' ') // strings.Builder never errors
				}
				fmt.Fprintf(&b, "≤%s:%d", bc.LE, bc.N)
			}
			fmt.Fprintf(w, "%-*s    buckets: %s\n", nameW, "", b.String())
		}
	}
}

// summaryFloat formats a float for the summary table with fixed precision.
func summaryFloat(x float64) string {
	if math.Abs(x) >= 1e6 {
		return strconv.FormatFloat(x, 'e', 4, 64)
	}
	return strconv.FormatFloat(x, 'f', 4, 64)
}

// summaryMean renders sum/count, or "-" for an empty metric.
func summaryMean(sum float64, count uint64) string {
	if count == 0 {
		return "-"
	}
	return summaryFloat(sum / float64(count))
}
