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
// function that stops it. An empty path profiles nothing.
func StartCPUProfile(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		_ = f.Close() // the profile never started; report that error instead
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		// StopCPUProfile flushed the profile; a close error here can only
		// lose an artifact the run already reported on, so drop it.
		_ = f.Close()
	}, nil
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
