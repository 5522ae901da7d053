// Package telemetry writes the telemetry files the commands produce: the
// statistics and series exports, the trace stream and the pprof profiles.
// Row exports are CSV when the path ends in .csv and JSON Lines otherwise.
package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"mmv2v"
)

// StartCPUProfile starts a CPU profile written to path and returns the
// function that stops it, which reports the first error of the profile's
// writes and the close. An empty path profiles nothing.
func StartCPUProfile(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := &errWriter{w: f}
	if err := pprof.StartCPUProfile(w); err != nil {
		_ = f.Close() // the profile never started; report that error instead
		return nil, err
	}
	return func() error {
		// StopCPUProfile returns once the profile is written, so w.err is
		// final here.
		pprof.StopCPUProfile()
		err := w.err
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	}, nil
}

// errWriter passes writes through to w and keeps the first error, which the
// CPU profile's writer in runtime/pprof drops.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, err
}

// WriteMemProfile snapshots the heap to path after forcing a GC, so the
// profile reflects live objects. An empty path writes nothing.
func WriteMemProfile(path string) error {
	if path == "" {
		return nil
	}
	return writeFile(path, func(w io.Writer) error {
		runtime.GC()
		return pprof.WriteHeapProfile(w)
	})
}

// WriteStats sorts rows, exports them to path and prints the summary table,
// after a blank line, to summary.
func WriteStats(path string, rows []mmv2v.StatsRow, summary io.Writer) error {
	mmv2v.SortStatsRows(rows)
	if err := export(path, rows, mmv2v.WriteStatsCSV, mmv2v.WriteStatsJSONL); err != nil {
		return err
	}
	fmt.Fprintln(summary)
	mmv2v.WriteStatsSummary(summary, rows)
	return nil
}

// WriteSeries sorts rows and exports them to path.
func WriteSeries(path string, rows []mmv2v.SeriesRow) error {
	mmv2v.SortSeriesRows(rows)
	return export(path, rows, mmv2v.WriteSeriesCSV, mmv2v.WriteSeriesJSONL)
}

// WriteTrace writes events to path as JSON Lines in slice order.
func WriteTrace(path string, events []mmv2v.TraceEvent) error {
	return writeFile(path, func(w io.Writer) error { return mmv2v.WriteTraceJSONL(w, events) })
}

// export writes rows to path with writeCSV when the path ends in .csv and
// with writeJSONL otherwise.
func export[T any](path string, rows []T, writeCSV, writeJSONL func(io.Writer, []T) error) error {
	write := writeJSONL
	if strings.HasSuffix(path, ".csv") {
		write = writeCSV
	}
	return writeFile(path, func(w io.Writer) error { return write(w, rows) })
}

// writeFile creates path, writes it through a buffer and returns the first
// error of the write, the flush and the close.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
