package mmv2v

import "mmv2v/internal/experiments"

// The Reproduce* functions regenerate the paper's evaluation (Sec. IV).
// Each takes an options struct preset to the paper's configuration and
// returns a typed result that can print itself as a text table whose
// rows/series mirror the corresponding figure.

// Fig6Options parameterize the Fig. 6 study (CNS constant C).
type Fig6Options = experiments.Fig6Options

// Fig6Result holds the Fig. 6 capacity-vs-slots curves.
type Fig6Result = experiments.Fig6Result

// DefaultFig6Options returns the paper's Fig. 6 configuration.
func DefaultFig6Options() Fig6Options { return experiments.DefaultFig6Options() }

// ReproduceFig6 regenerates Fig. 6: capacity per vehicle vs negotiation
// slots for C = 1..12 under four traffic scenarios.
func ReproduceFig6(opts Fig6Options) (*Fig6Result, error) { return experiments.Fig6(opts) }

// ExperimentRun is the execution setup that every experiment's options but
// Theorem2Options embed: seed, trials, worker bound and per-cell progress
// callback.
type ExperimentRun = experiments.Run

// Sweep holds the OCR/ATP CDFs of Fig. 7 (over K) or Fig. 8 (over M).
type Sweep = experiments.Sweep

// Fig7Options parameterize the Fig. 7 study (discovery rounds K).
type Fig7Options = experiments.Fig7Options

// DefaultFig7Options returns the paper's Fig. 7 configuration.
func DefaultFig7Options() Fig7Options { return experiments.DefaultFig7Options() }

// ReproduceFig7 regenerates Fig. 7: CDFs of OCR and ATP for K = 1..4.
func ReproduceFig7(opts Fig7Options) (*Sweep, error) { return experiments.Fig7(opts) }

// Fig8Options parameterize the Fig. 8 study (negotiation slots M).
type Fig8Options = experiments.Fig8Options

// DefaultFig8Options returns the paper's Fig. 8 configuration.
func DefaultFig8Options() Fig8Options { return experiments.DefaultFig8Options() }

// ReproduceFig8 regenerates Fig. 8: CDFs of OCR and ATP for M = 20..80.
func ReproduceFig8(opts Fig8Options) (*Sweep, error) { return experiments.Fig8(opts) }

// Fig9Options parameterize the Fig. 9 comparison (protocols vs density).
type Fig9Options = experiments.Fig9Options

// Fig9Result holds the Fig. 9 OCR/ATP/DTP tables.
type Fig9Result = experiments.Fig9Result

// DefaultFig9Options returns the paper's Fig. 9 configuration.
func DefaultFig9Options() Fig9Options { return experiments.DefaultFig9Options() }

// ReproduceFig9 regenerates Fig. 9: OCR, ATP and DTP vs traffic density for
// mmV2V, ROP and IEEE 802.11ad.
func ReproduceFig9(opts Fig9Options) (*Fig9Result, error) { return experiments.Fig9(opts) }

// Theorem2Options parameterize the Theorem 2 validation.
type Theorem2Options = experiments.Theorem2Options

// Theorem2Result holds the analytic-vs-empirical discovery ratios.
type Theorem2Result = experiments.Theorem2Result

// DefaultTheorem2Options returns the standard Theorem 2 validation setting.
func DefaultTheorem2Options() Theorem2Options { return experiments.DefaultTheorem2Options() }

// ValidateTheorem2 checks the identified-neighbor ratio 1 − [p²+(1−p)²]^K
// against Monte Carlo role coins and (optionally) a full simulation frame.
func ValidateTheorem2(opts Theorem2Options) (*Theorem2Result, error) {
	return experiments.Theorem2(opts)
}

// TrucksOptions parameterize the heavy-vehicle blockage extension study.
type TrucksOptions = experiments.TrucksOptions

// TrucksResult holds the truck-share sweep.
type TrucksResult = experiments.TrucksResult

// DefaultTrucksOptions returns the standard truck-share sweep.
func DefaultTrucksOptions() TrucksOptions { return experiments.DefaultTrucksOptions() }

// RunTrucks measures OHM performance as a growing share of the vehicles are
// trucks (16 m bodies that dominate mmWave blockage) — an extension beyond
// the paper's cars-only evaluation.
func RunTrucks(opts TrucksOptions) (*TrucksResult, error) {
	return experiments.Trucks(opts)
}

// WarmupOptions parameterize the cold-start vs warm-window study.
type WarmupOptions = experiments.WarmupOptions

// WarmupResult holds per-window metrics.
type WarmupResult = experiments.WarmupResult

// DefaultWarmupOptions returns the standard cold-start study setting.
func DefaultWarmupOptions() WarmupOptions { return experiments.DefaultWarmupOptions() }

// RunWarmup measures how much consecutive windows benefit from the
// discovery state accumulated in earlier windows.
func RunWarmup(opts WarmupOptions) (*WarmupResult, error) {
	return experiments.Warmup(opts)
}

// AblationOptions parameterize the design-choice ablation study.
type AblationOptions = experiments.AblationOptions

// AblationResult holds the ablation rows.
type AblationResult = experiments.AblationResult

// DefaultAblationOptions returns the standard ablation setting.
func DefaultAblationOptions() AblationOptions { return experiments.DefaultAblationOptions() }

// RunAblation compares mmV2V against the centralized greedy oracle and
// against variants disabling one design choice at a time.
func RunAblation(opts AblationOptions) (*AblationResult, error) {
	return experiments.Ablation(opts)
}

// FaultsOptions parameterize the graceful-degradation fault sweep.
type FaultsOptions = experiments.FaultsOptions

// FaultsResult holds the fault-sweep table.
type FaultsResult = experiments.FaultsResult

// DefaultFaultsOptions returns the standard sweep: the 20 vpl scenario
// under the default stress profile at intensities 0, ¼, ½ and 1.
func DefaultFaultsOptions() FaultsOptions { return experiments.DefaultFaultsOptions() }

// RunFaultSweep measures how mmV2V, ROP and IEEE 802.11ad degrade as
// deterministic channel/radio faults intensify (our addition beyond the
// paper; see internal/faults for the fault model).
func RunFaultSweep(opts FaultsOptions) (*FaultsResult, error) {
	return experiments.FaultSweep(opts)
}

// CityOptions parameterize the city-grid protocol comparison: the OHM
// schemes evaluated on a Manhattan road-graph network instead of the
// paper's straight road (our extension; see GridConfig for the topology).
type CityOptions = experiments.CityOptions

// CityResult holds the city-grid comparison.
type CityResult = experiments.CityResult

// DefaultCityOptions returns the standard downtown setting: a 3×3
// intersection grid with 200 m blocks and 180 vehicles.
func DefaultCityOptions() CityOptions { return experiments.DefaultCityOptions() }

// ReproduceCity runs the OHM protocol comparison on a city road-graph
// network — intersections, cross-street blockage and turning traffic
// replace the highway platooning of the straight-road scenarios.
func ReproduceCity(opts CityOptions) (*CityResult, error) {
	return experiments.City(opts)
}
