// Tracing: run one second of mmV2V with tracing on and mine the event
// stream in Result.Trace — how long discovery takes to converge, how often
// matches are broken by better candidates, and how the per-pair MCS rates
// are distributed. The same stream can be written as JSON Lines with
// mmv2v.WriteTraceJSONL for external tools
// (see `mmv2v-sim -trace events.jsonl`).
//
//	go run ./examples/tracing
package main

import (
	"fmt"
	"log"
	"sort"

	"mmv2v"
)

func main() {
	cfg := mmv2v.DefaultScenario(15, 42)
	cfg.Trace = true

	res, err := mmv2v.Run(cfg, mmv2v.MMV2V(mmv2v.DefaultParams()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("run: OCR=%.3f ATP=%.3f over %d vehicles\n\n",
		res.Summary.MeanOCR, res.Summary.MeanATP, res.Summary.Vehicles)

	events := res.Trace
	counts := map[mmv2v.TraceKind]int{}
	for _, e := range events {
		counts[e.Kind]++
	}
	fmt.Println("event volume over 1 s:")
	for _, k := range []mmv2v.TraceKind{
		mmv2v.TraceDiscovery, mmv2v.TraceMatch, mmv2v.TraceBreakup,
		mmv2v.TraceStreamStart, mmv2v.TraceRate, mmv2v.TraceCompletion,
	} {
		fmt.Printf("  %-13s %6d\n", k, counts[k])
	}

	// Discovery convergence: new (vehicle, peer) identifications per frame.
	perFrame := map[int]int{}
	for _, e := range events {
		if e.Kind == mmv2v.TraceDiscovery {
			perFrame[e.Frame]++
		}
	}
	fmt.Println("\nnew discoveries per frame (working set converges, then only")
	fmt.Println("re-entries from churn):")
	for _, f := range []int{0, 1, 2, 3, 5, 10, 20, 40} {
		fmt.Printf("  frame %-3d %4d\n", f, perFrame[f])
	}

	// Matching churn: breakups per match (the DCM update rule in action).
	if counts[mmv2v.TraceMatch] > 0 {
		fmt.Printf("\nmatch churn: %d matches, %d break-ups (%.2f break-ups/match)\n",
			counts[mmv2v.TraceMatch], counts[mmv2v.TraceBreakup],
			float64(counts[mmv2v.TraceBreakup])/float64(counts[mmv2v.TraceMatch]))
	}

	// Rate distribution over all repricing events.
	var rates []float64
	for _, e := range events {
		if e.Kind == mmv2v.TraceRate && e.Value > 0 {
			rates = append(rates, e.Value)
		}
	}
	if len(rates) > 0 {
		sort.Float64s(rates)
		q := func(p float64) float64 { return rates[int(p*float64(len(rates)-1))] }
		fmt.Printf("\nlink rate distribution at repricing (Gb/s): p10=%.2f p50=%.2f p90=%.2f\n",
			q(0.1)/1e9, q(0.5)/1e9, q(0.9)/1e9)
	}
}
