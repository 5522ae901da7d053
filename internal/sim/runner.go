// Trial execution engine: a bounded worker pool that runs independent
// simulation trials concurrently without giving up determinism, and
// isolates each trial so a crash degrades one data point instead of the
// whole experiment.
//
// Every trial is a pure function of its config and derived seed (own road,
// world, DES and RNG streams), so trials can run in any order on any number
// of workers. Results land in a slot-per-trial buffer and merge in trial
// order, which makes the pooled output bit-identical to a serial loop for
// every worker count — the invariant the determinism regression tests pin.
//
// Each trial runs under recover(): a panic (or error) is recorded as a
// TrialError carrying the scenario, trial index, derived seed, stack and a
// repro command. Trials are deterministic, so a failed trial is not
// re-run: it would fail the same way. RunTrials merges the surviving trials
// and only fails outright when no trial succeeded.
package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"mmv2v/internal/metrics"
	"mmv2v/internal/obs"
	"mmv2v/internal/xrand"
)

// Runner executes independent simulation jobs on a bounded worker pool. One
// Runner can be shared by many concurrent submitters (e.g. every cell of an
// experiment grid), which bounds the total simulation concurrency of the
// whole experiment rather than per call site.
type Runner struct {
	workers int
	sem     chan struct{}
}

// NewRunner returns a Runner with the given worker bound; workers <= 0 uses
// runtime.GOMAXPROCS(0).
func NewRunner(workers int) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{workers: workers, sem: make(chan struct{}, workers)}
}

// Workers returns the pool's concurrency bound.
func (r *Runner) Workers() int { return r.workers }

// Do runs jobs 0..n-1 with at most Workers executing at once and blocks
// until all complete. Jobs must write their results into caller-owned
// per-index slots; Do joins every job error in index order (lowest first),
// so failure reporting does not depend on completion order and no error is
// discarded. Jobs themselves must not submit further work to the same
// Runner while holding their slot — use Gather for coordinator fan-out
// above the pool.
func (r *Runner) Do(n int, job func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		r.sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-r.sem }()
			errs[i] = job(i)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Gather runs n coordinator jobs concurrently — without occupying pool
// slots — and joins their errors in index order. Coordinators only submit
// leaf work to a shared Runner and merge slot buffers, so they are cheap
// and bounding them would only risk starving the pool they feed.
func Gather(n int, job func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			errs[i] = job(i)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// RunTrials runs the same scenario with distinct per-trial seeds on the
// pool and merges the results in trial order. The per-trial seed depends
// only on (cfg.Seed, trial) and every trial builds its own environment, so
// the pooled Result is bit-identical for any worker count — and to the
// serial loop this engine replaced. cfg.Workers is ignored here: the
// receiver's bound governs, so experiment grids sharing one Runner get one
// global concurrency budget.
//
// Each trial is crash-isolated: a panicking or erroring trial becomes a
// TrialError in Result.Failures while the remaining trials complete and
// merge. The returned error is non-nil only when every trial failed (the
// join of all TrialErrors, lowest trial first).
func (r *Runner) RunTrials(cfg Config, factory Factory, trials int) (*Result, error) {
	return r.RunTrialsEach(cfg, factory, trials, nil)
}

// RunTrialsEach runs like RunTrials and, after the pool drains, additionally
// invokes each(trial, result) for every successful trial in ascending trial
// order — the hook the run-log writer uses to record per-trial windows and
// digests. Because the hook fires from the per-index slot buffer after all
// workers finish, its call sequence is deterministic for any worker count.
// A nil hook is valid (RunTrials passes one).
func (r *Runner) RunTrialsEach(cfg Config, factory Factory, trials int, each func(trial int, res *Result)) (*Result, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("sim: non-positive trial count %d", trials)
	}
	results := make([]*Result, trials)
	failures := make([]*TrialError, trials)
	_ = r.Do(trials, func(tr int) error {
		c := cfg
		c.Seed = xrand.Mix(cfg.Seed, uint64(tr))
		c.Trial = tr
		res, err := runIsolated(c, factory)
		if err != nil {
			te := &TrialError{
				Scenario: scenarioLabel(c),
				Config:   cfg,
				Trial:    tr,
				Seed:     c.Seed,
				Err:      err,
			}
			var pe *PanicError
			if errors.As(err, &pe) {
				te.Stack = pe.Stack
			}
			failures[tr] = te
			return te
		}
		results[tr] = res
		return nil
	})
	if each != nil {
		for tr, res := range results {
			if res != nil {
				each(tr, res)
			}
		}
	}
	pooled := MergeTrials(results)
	for _, f := range failures {
		if f != nil {
			pooled.Failures = append(pooled.Failures, f)
		}
	}
	if pooled.Trials == 0 {
		errs := make([]error, 0, len(pooled.Failures))
		for _, f := range pooled.Failures {
			errs = append(errs, f)
		}
		return nil, errors.Join(errs...)
	}
	return pooled, nil
}

// MergeTrials pools per-trial results in slice (= trial) order, skipping
// failed (nil) slots; each failure degrades one data point, not the run.
// Trace events concatenate in slot order, each stamped with its slot index;
// a failed slot adds none.
// Exported for the run-log replay path, which reconstructs the per-trial
// results from a log and re-pools them exactly as the original run did.
func MergeTrials(results []*Result) *Result {
	pooled := &Result{}
	parts := make([][]metrics.VehicleStats, 0, len(results))
	regs := make([]*obs.Registry, 0, len(results))
	series := make([]*obs.Series, 0, len(results))
	for tr, r := range results {
		if r == nil {
			continue
		}
		for _, e := range r.Trace {
			e.Trial = tr
			pooled.Trace = append(pooled.Trace, e)
		}
		pooled.Protocol = r.Protocol
		pooled.Windows = append(pooled.Windows, r.Windows...)
		parts = append(parts, r.Stats)
		regs = append(regs, r.Obs)
		series = append(series, r.Series)
		pooled.AvgNeighbors += r.AvgNeighbors
		pooled.LatencySumSec += r.LatencySumSec
		pooled.LatencyPairs += r.LatencyPairs
		pooled.Events += r.Events
		pooled.Trials++
	}
	pooled.Stats, pooled.Summary = metrics.Merge(parts)
	pooled.Obs = obs.Merge(regs)
	pooled.Series = obs.MergeSeries(series)
	if pooled.Trials > 0 {
		pooled.AvgNeighbors /= float64(pooled.Trials)
	}
	return pooled
}
