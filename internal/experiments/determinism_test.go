package experiments

import (
	"bytes"
	"testing"

	"mmv2v/internal/faults"
)

// TestFig9TableByteIdenticalAcrossWorkers pins the parallel-merge invariant
// at the experiment level: the rendered Fig. 9 table must be byte-identical
// whether the cells and trials run on one worker or eight.
func TestFig9TableByteIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment determinism test")
	}
	render := func(workers int) []byte {
		opts := Fig9Options{Run: Run{Seed: 1, Trials: 2, Workers: workers}, Densities: []float64{12}}
		res, err := Fig9(opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		res.WriteTable(&buf)
		if err := res.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := render(1)
	parallel := render(8)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("Fig. 9 output differs between Workers=1 and Workers=8:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}

// TestFaultSweepByteIdenticalAcrossWorkers extends the invariant to the
// fault-injection layer: every fault decision is a pure function of
// (seed, entity, time), so the rendered fault-sweep table and CSV must be
// byte-identical whether trials run on one worker or eight.
func TestFaultSweepByteIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment determinism test")
	}
	render := func(workers int) []byte {
		opts := FaultsOptions{
			Run:         Run{Seed: 1, Trials: 2, Workers: workers},
			DensityVPL:  12,
			WindowSec:   0.2,
			Intensities: []float64{0, 1},
			Profile:     faults.DefaultConfig(),
		}
		res, err := FaultSweep(opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		res.WriteTable(&buf)
		if err := res.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := render(1)
	parallel := render(8)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("fault sweep output differs between Workers=1 and Workers=8:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}

// TestCityTableByteIdenticalAcrossWorkers extends the parallel-merge
// invariant to the city-grid scenario: road-graph routing, the spatial-hash
// link table and pooled trials must render byte-identically whether the
// protocol cells run on one worker or eight.
func TestCityTableByteIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment determinism test")
	}
	render := func(workers int) []byte {
		opts := DefaultCityOptions()
		opts.Trials = 2
		opts.Grid.Vehicles = 90
		opts.Workers = workers
		res, err := City(opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		res.WriteTable(&buf)
		if err := res.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := render(1)
	parallel := render(8)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("city output differs between Workers=1 and Workers=8:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}
