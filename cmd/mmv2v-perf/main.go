// Command mmv2v-perf is the repository's end-to-end benchmark. It simulates
// whole passes over a workload's fixed pool of protocol trials (or
// 10k-vehicle city drives) for a wall-time budget, checks every trial's
// output against recorded digests, and prints the end-to-end metrics as
// one JSON line. With -trace 1 it instead runs each trial twice, plain and
// traced, and prints the per-layer split. It measures every layer from
// outside, through public entry points only; see README.md.
//
//	bash cmd/mmv2v-perf/run.sh --workload mmv2v-15vpl --seed 1 --seconds 28 --trace 0
package main

import (
	"embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"
)

//go:embed digests/*.json
var digestFS embed.FS

// minSetups is how many set-ups a run times at least; runs whose trials
// are too long to give that many at setupShare add more at the end.
const minSetups = 9

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	heldOut  bool
	record   bool
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "mmv2v-perf:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("mmv2v-perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run: mmv2v-15vpl, rop-15vpl, ad-30vpl or city-drive-10k")
	fs.Uint64Var(&o.seed, "seed", 0, "run seed: the pool index (mod pool size) each pass starts at")
	fs.IntVar(&o.seconds, "seconds", 10, "wall seconds to measure for, in whole passes over the pool (at least one)")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	fs.BoolVar(&o.heldOut, "held-out", false, "draw trials from the held-out workload seed's pool")
	fs.BoolVar(&o.record, "record", false, "re-record the workload's reference digests (plain sim.Run) under digests/")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	if o.record {
		return record(w, stderr)
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		return fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	wseed := defaultWorkloadSeed
	if o.heldOut {
		wseed = heldOutWorkloadSeed
	}
	refs, err := loadDigests(w.name, wseed)
	if err != nil {
		return err
	}
	if len(refs) != w.pool {
		return fmt.Errorf("%s: %d reference digests for workload seed %d, want %d", w.name, len(refs), wseed, w.pool)
	}
	res := measure(w, wseed, refs, o, stderr)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// setupShare is the share of a run's time spent on set-up-only repetitions,
// interleaved with the measured trials so that setup_s samples the whole run.
const setupShare = 0.1

// measure runs passes over the workload's trial pool, each pass starting at
// pool index seed mod pool, so every run measures the same trials. An
// untraced run starts another pass while it would end within half a pass of
// the time budget (always at least one) and pools all of them. A traced run
// pairs each trial with its traced repetition and stops at the first pair
// past the budget.
func measure(w workload, wseed uint64, refs []uint64, o options, stderr io.Writer) result {
	budget := time.Duration(o.seconds) * time.Second
	start := time.Now()
	first := int(o.seed % uint64(w.pool))
	var res result
	// ok counts one measured window and reports whether it passed the check.
	ok := func(idx int, run *trialRun, err error) bool {
		res.Attempted++
		if err == nil && run.digest != refs[idx] {
			err = fmt.Errorf("trial %d: digest %016x, reference %016x", idx, run.digest, refs[idx])
		}
		if err != nil {
			res.Failed++
			fmt.Fprintln(stderr, "mmv2v-perf: failed window:", err)
			return false
		}
		return true
	}
	var plain, tr runStats
	if o.trace == 1 {
		for k := 0; k == 0 || time.Since(start) < budget; k++ {
			idx := (first + k) % w.pool
			if run, err := runTrial(w, wseed, idx, false); ok(idx, run, err) {
				plain.add(run)
			}
			if run, err := runTrial(w, wseed, idx, true); ok(idx, run, err) {
				tr.add(run)
			}
		}
		res.Metrics = perLayerMetrics(w, &plain, &tr)
	} else {
		var setupTime, lastPass time.Duration
		passes := 0
		for ; passes == 0 || time.Since(start)+lastPass/2 <= budget; passes++ {
			passStart := time.Now()
			for i := 0; i < w.pool; i++ {
				idx := (first + i) % w.pool
				run, err := runTrial(w, wseed, idx, false)
				if !ok(idx, run, err) {
					continue
				}
				plain.add(run)
				plain.addSetupTimes(run.setup)
				setupTime += run.setup.total()
				for setupTime.Seconds() < setupShare*time.Since(start).Seconds() {
					d, err := plain.addSetup(w, trialSeed(wseed, idx))
					if err != nil {
						fmt.Fprintf(stderr, "%s: set-up of trial %d: %v\n", w.name, idx, err)
						break
					}
					setupTime += d
				}
			}
			lastPass = time.Since(passStart)
		}
		for len(plain.setups) < minSetups {
			if _, err := plain.addSetup(w, trialSeed(wseed, first)); err != nil {
				fmt.Fprintf(stderr, "%s: set-up of trial %d: %v\n", w.name, first, err)
				break
			}
		}
		res.Metrics = endToEndMetrics(&plain)
		plain.report(w, passes, stderr)
	}
	res.Correct = res.Failed == 0
	return res
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// loadDigests returns the recorded digests of one workload seed's pool.
func loadDigests(name string, wseed uint64) ([]uint64, error) {
	data, err := digestFS.ReadFile("digests/" + name + ".json")
	if err != nil {
		return nil, fmt.Errorf("no reference digests for %s: %w", name, err)
	}
	var bySeed map[string][]string
	if err := json.Unmarshal(data, &bySeed); err != nil {
		return nil, fmt.Errorf("digests/%s.json: %w", name, err)
	}
	hexes, ok := bySeed[strconv.FormatUint(wseed, 10)]
	if !ok {
		return nil, fmt.Errorf("digests/%s.json has no workload seed %d", name, wseed)
	}
	out := make([]uint64, len(hexes))
	for i, h := range hexes {
		if out[i], err = strconv.ParseUint(h, 16, 64); err != nil {
			return nil, fmt.Errorf("digests/%s.json: %w", name, err)
		}
	}
	return out, nil
}

// record runs every pool trial of both workload seeds through the plain,
// uninstrumented path and writes their digests to digests/<name>.json in
// the current directory.
func record(w workload, stderr io.Writer) error {
	bySeed := make(map[string][]string)
	for _, wseed := range []uint64{defaultWorkloadSeed, heldOutWorkloadSeed} {
		var hexes []string
		for idx := 0; idx < w.pool; idx++ {
			d, err := plainDigest(w, wseed, idx)
			if err != nil {
				return fmt.Errorf("%s seed %d trial %d: %w", w.name, wseed, idx, err)
			}
			hexes = append(hexes, fmt.Sprintf("%016x", d))
			fmt.Fprintf(stderr, "%s seed %d trial %d: %016x\n", w.name, wseed, idx, d)
		}
		bySeed[strconv.FormatUint(wseed, 10)] = hexes
	}
	data, err := json.MarshalIndent(bySeed, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("digests/"+w.name+".json", append(data, '\n'), 0o644)
}
