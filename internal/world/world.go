// Package world binds the traffic substrate to the channel model. It owns
// the per-snapshot state every protocol consumes: vehicle positions and
// headings, the pairwise link table (distance, bearing, blocker count, path
// gain) for all pairs within interference range, and the line-of-sight
// one-hop neighbor sets that define the OHM problem (Sec. II-B).
//
// The world is generic over the mobility substrate (traffic.Fleet): the
// paper's straight ring road and city-scale road-graph networks bind
// identically. Pair discovery and blocker lookups run on a deterministic
// spatial-hash grid keyed on cell coordinates — candidates are culled to
// the 2-D cell neighborhood of each vehicle before any channel math, so a
// Refresh costs O(vehicles × local density) regardless of topology, where
// the previous global x-sorted sweep degenerated toward O(n²) on 2-D road
// graphs. Per-vehicle link slices stay sorted by partner x-rank, so the
// straight-road special case produces byte-identical tables to the sweep
// it replaced.
//
// The table is refreshed at the paper's 5 ms cadence ("vehicle position and
// link quality is updated every 5 ms"); between refreshes a pair query is
// one binary search of the querying vehicle's rank-sorted link slice (total
// size O(links), never O(n²)), which is what makes the event-driven control
// plane (144 sector slots + 40 negotiation slots per frame) affordable and
// lets vehicle counts scale without a dense pair matrix.
package world

import (
	"fmt"
	"math"

	"mmv2v/internal/channel"
	"mmv2v/internal/geom"
	"mmv2v/internal/obs"
	"mmv2v/internal/phy"
	"mmv2v/internal/traffic"
	"mmv2v/internal/units"
	"mmv2v/internal/xrand"
)

// Config parameterizes link-table construction.
type Config struct {
	// CommRange is the one-hop neighbor disk radius (the paper's "dotted
	// disk"; DESIGN.md: 50 m default, calibrated so the Fig. 6 densities
	// yield the paper's 5–8 average LOS neighbors).
	CommRange units.Meter
	// InterferenceRange bounds which transmitters contribute interference
	// (beyond it, even main-lobe power is far below noise).
	InterferenceRange units.Meter
	// Channel is the propagation model configuration.
	Channel channel.Params
	// ShadowSeed drives the per-pair shadowing draws when
	// Channel.ShadowSigmaDB > 0.
	ShadowSeed uint64
}

// DefaultConfig returns the paper-calibrated world configuration.
func DefaultConfig() Config {
	return Config{
		CommRange:         50,
		InterferenceRange: 250,
		Channel:           channel.DefaultParams(),
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.CommRange <= 0 {
		return fmt.Errorf("world: non-positive comm range %v", c.CommRange)
	}
	if c.InterferenceRange < c.CommRange {
		return fmt.Errorf("world: interference range %v below comm range %v",
			c.InterferenceRange, c.CommRange)
	}
	return c.Channel.Validate()
}

// CellSizeM returns the spatial-hash cell edge the configuration implies:
// at least CommRange, so every LOS neighbor candidate sits in the 3×3 cell
// neighborhood, and at least a quarter of InterferenceRange, so the pair
// scan never walks more than a 9×9 neighborhood (DESIGN.md §10).
func (c Config) CellSizeM() float64 {
	return math.Max(c.CommRange.M(), c.InterferenceRange.M()/4)
}

// Link is one directed entry of the pair table: the link from a vehicle to
// peer J. Dist, Blockers and PathGainLin are symmetric; Bearing is the
// compass bearing from the owning vehicle toward J, and BackBearing the
// bearing from J toward the owner (bit for bit J's own entry's Bearing), so
// one entry carries everything a received power needs. J and Blockers are
// int32, like the world's other vehicle indexes, so the entry stays 40
// bytes.
type Link struct {
	J           int32
	Blockers    int32
	Dist        units.Meter
	Bearing     geom.Bearing
	BackBearing geom.Bearing
	PathGainLin float64
}

// LOS reports whether the link has an unobstructed line of sight.
func (l Link) LOS() bool { return l.Blockers == 0 }

// World is the live geometric + radio state. Create with New; refresh with
// Refresh after advancing traffic. Not safe for concurrent use.
type World struct {
	cfg      Config
	fleet    traffic.Fleet
	model    *channel.Model
	patterns *channel.PatternCache
	// omni is the isotropic pattern quasi-omni beams resolve to.
	omni channel.Pattern

	n         int
	pos       []geom.Vec
	heading   []geom.Bearing
	speed     []units.MeterPerSec
	links     [][]Link
	neighbors [][]int
	// halfLen/halfWid/halfDiag cache per-vehicle body half extents and the
	// half-diagonal bound used to prune blocker candidates; frames cache
	// each body's corner geometry for the blockage tests (one sincos per
	// vehicle per refresh instead of one per candidate test).
	halfLen  []float64
	halfWid  []float64
	halfDiag []float64
	frames   []geom.BodyFrame

	// order is the x-sorted vehicle permutation; rank its inverse. They
	// persist across Refresh calls: positions move only micrometers per
	// 5 ms tick, so re-sorting the previous permutation is nearly free.
	// Ranks give links their canonical per-vehicle order (ascending
	// partner rank) — the order the legacy x-sweep produced — which Link
	// binary-searches.
	order []int
	rank  []int32

	// Spatial hash: a dense grid of cells over the fleet's static bounds.
	// cells[cy*cellsX+cx] lists the vehicles whose center lies in the cell,
	// in ascending vehicle index; rebuilt every Refresh into persistent
	// buckets. reach is the cell radius of the pair scan.
	cellM          float64
	invCellM       float64
	gridMin        geom.Vec
	cellsX, cellsY int
	cells          [][]int32
	reach          int

	// linkFault, when non-nil, multiplies every refreshed link's path gain
	// by an extra factor (transient blockage bursts; see internal/faults).
	linkFault LinkFault

	// Refresh statistics handles (nil-safe no-ops until SetObs installs a
	// live registry).
	obsRefreshes    *obs.Counter
	obsRefreshLinks *obs.Histogram
	obsNLOSLinks    *obs.Counter
}

// LinkFault is the world's fault-injection hook: an extra linear gain
// factor (≤ 1) applied to pair (a, b) at each refresh. The LOS neighbor
// sets — the OHM task definition — are unaffected, so faults degrade what
// protocols achieve, never what they are asked to achieve.
type LinkFault interface {
	LinkFactorLin(a, b int) float64
}

// SetLinkFault installs a link-fault hook; nil restores the clean channel.
// Takes effect at the next Refresh.
func (w *World) SetLinkFault(f LinkFault) { w.linkFault = f }

// SetObs installs the statistics registry. A nil registry (the default)
// hands out nil handles, so the Refresh hot path stays a no-op.
func (w *World) SetObs(r *obs.Registry) {
	w.obsRefreshes = r.Counter("world.refreshes")
	w.obsRefreshLinks = r.Histogram("world.refresh_links", obs.ExpBuckets(16, 2, 11))
	w.obsNLOSLinks = r.Counter("world.nlos_links")
}

// New builds a World over a mobility substrate (the ring road or a road
// graph). Refresh is called once so the world is immediately queryable.
func New(cfg Config, fleet traffic.Fleet) (*World, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	model, err := channel.NewModel(cfg.Channel)
	if err != nil {
		return nil, err
	}
	n := fleet.NumVehicles()
	w := &World{
		cfg:       cfg,
		fleet:     fleet,
		model:     model,
		patterns:  channel.NewPatternCache(cfg.Channel.SideLobeDB),
		omni:      channel.OmniPattern(),
		n:         n,
		pos:       make([]geom.Vec, n),
		heading:   make([]geom.Bearing, n),
		speed:     make([]units.MeterPerSec, n),
		links:     make([][]Link, n),
		neighbors: make([][]int, n),
		halfLen:   make([]float64, n),
		halfWid:   make([]float64, n),
		halfDiag:  make([]float64, n),
		frames:    make([]geom.BodyFrame, n),
		order:     make([]int, n),
		rank:      make([]int32, n),
	}
	for i := range w.order {
		w.order[i] = i
	}
	w.initGrid()
	w.Refresh()
	return w, nil
}

// initGrid sizes the dense cell grid from the fleet's static bounds. Cell
// edges come from Config.CellSizeM, floored so the grid never exceeds a
// bounded cell count on extreme bounds.
func (w *World) initGrid() {
	min, max := w.fleet.Bounds()
	w.gridMin = min
	spanX := math.Max(max.X-min.X, 1)
	spanY := math.Max(max.Y-min.Y, 1)
	cell := w.cfg.CellSizeM()
	// Bound the grid to ~2M cells: beyond that, coarser cells cost less
	// than the per-refresh clear of an enormous dense grid.
	const maxCells = 1 << 21
	for float64(int(spanX/cell)+1)*float64(int(spanY/cell)+1) > maxCells {
		cell *= 2
	}
	w.cellM = cell
	w.invCellM = 1 / cell
	w.cellsX = int(spanX/cell) + 1
	w.cellsY = int(spanY/cell) + 1
	w.cells = make([][]int32, w.cellsX*w.cellsY)
	w.reach = int(math.Ceil(w.cfg.InterferenceRange.M() / cell))
}

// cellX maps a world x coordinate to a clamped cell column (cellY likewise
// for rows). Queries may probe beyond the bounds (bbox pads); clamping
// keeps them on the grid without wrapping.
func (w *World) cellX(x float64) int {
	c := int((x - w.gridMin.X) * w.invCellM)
	if c < 0 {
		return 0
	}
	if c >= w.cellsX {
		return w.cellsX - 1
	}
	return c
}

func (w *World) cellY(y float64) int {
	c := int((y - w.gridMin.Y) * w.invCellM)
	if c < 0 {
		return 0
	}
	if c >= w.cellsY {
		return w.cellsY - 1
	}
	return c
}

// NumVehicles returns the vehicle count.
func (w *World) NumVehicles() int { return w.n }

// Config returns the world configuration.
func (w *World) Config() Config { return w.cfg }

// Fleet returns the underlying mobility substrate.
func (w *World) Fleet() traffic.Fleet { return w.fleet }

// Road returns the underlying ring-road simulation, or nil when the world
// runs over a road-graph network (use Fleet for substrate-agnostic access).
func (w *World) Road() *traffic.Road {
	r, _ := w.fleet.(*traffic.Road)
	return r
}

// Network returns the underlying road-graph network, or nil when the world
// runs over the legacy ring road.
func (w *World) Network() *traffic.Network {
	nw, _ := w.fleet.(*traffic.Network)
	return nw
}

// Channel returns the channel model.
func (w *World) Channel() *channel.Model { return w.model }

// Position returns vehicle i's current position.
func (w *World) Position(i int) geom.Vec { return w.pos[i] }

// Heading returns vehicle i's current travel bearing (its GPS heading).
func (w *World) Heading(i int) geom.Bearing { return w.heading[i] }

// Speed returns vehicle i's current speed.
func (w *World) Speed(i int) units.MeterPerSec { return w.speed[i] }

// loadPoses copies the fleet's current poses into the world's pose arrays.
func (w *World) loadPoses() {
	for i := 0; i < w.n; i++ {
		w.pos[i], w.heading[i], w.speed[i] = w.fleet.Pose(i)
	}
}

// rebuildGeometry refreshes the per-vehicle body extents and corner frames
// from the current poses, returning the largest body half-diagonal (the
// blocker-candidate padding bound).
func (w *World) rebuildGeometry() float64 {
	maxDiag := 0.0
	for i := 0; i < w.n; i++ {
		l, wd := w.fleet.BodyDims(i)
		w.halfLen[i] = l / 2
		w.halfWid[i] = wd / 2
		w.halfDiag[i] = math.Hypot(l/2, wd/2)
		if w.halfDiag[i] > maxDiag {
			maxDiag = w.halfDiag[i]
		}
		w.frames[i] = geom.NewBodyFrame(geom.Rect{
			Center: w.pos[i], Heading: w.heading[i], HalfLen: l / 2, HalfWid: wd / 2,
		})
	}
	return maxDiag
}

// rebuildCells re-bins every vehicle into the spatial hash (ascending
// vehicle index per bucket).
func (w *World) rebuildCells() {
	for c := range w.cells {
		w.cells[c] = w.cells[c][:0]
	}
	for i := 0; i < w.n; i++ {
		c := w.cellY(w.pos[i].Y)*w.cellsX + w.cellX(w.pos[i].X)
		//mmv2v:alloc amortized: buckets grow to steady-state occupancy and are reused across refreshes
		w.cells[c] = append(w.cells[c], int32(i))
	}
}

// Refresh recomputes positions and the pair table from the fleet state.
// Call after every traffic step (the paper's 5 ms update).
//
//mmv2v:hotpath the 5 ms link-table rebuild; pinned by BenchmarkRefresh*
func (w *World) Refresh() {
	w.loadPoses()

	// Re-sort the cached x-order permutation. The previous tick's order is
	// nearly sorted, so the insertion sort is O(n) amortized and
	// allocation-free. Ranks define the canonical link order below.
	w.sortOrderByX()
	for k, i := range w.order {
		w.rank[i] = int32(k)
	}

	for i := range w.links {
		w.links[i] = w.links[i][:0]
		w.neighbors[i] = w.neighbors[i][:0]
	}

	maxDiag := w.rebuildGeometry()
	w.rebuildCells()

	// Enumerate pairs: each vehicle scans its cell neighborhood out to the
	// interference range and processes exactly the partners of higher
	// x-rank, so every unordered pair is handled once, from its lower-rank
	// side — the orientation the legacy x-sweep used. Candidates beyond
	// range are culled on cheap coordinate deltas before any channel math.
	// Statistics accumulate in locals and are observed once per refresh.
	entries, nlos := 0, 0
	rangeM := w.cfg.InterferenceRange.M()
	for a := 0; a < w.n; a++ {
		pa := w.pos[a]
		ra := w.rank[a]
		cx, cy := w.cellX(pa.X), w.cellY(pa.Y)
		x0, x1 := maxInt(cx-w.reach, 0), minInt(cx+w.reach, w.cellsX-1)
		y0, y1 := maxInt(cy-w.reach, 0), minInt(cy+w.reach, w.cellsY-1)
		for gy := y0; gy <= y1; gy++ {
			for gx := x0; gx <= x1; gx++ {
				for _, bi := range w.cells[gy*w.cellsX+gx] {
					b := int(bi)
					if w.rank[b] <= ra {
						continue
					}
					pb := w.pos[b]
					if pb.X-pa.X > rangeM || pa.X-pb.X > rangeM ||
						pb.Y-pa.Y > rangeM || pa.Y-pb.Y > rangeM {
						continue
					}
					d := pa.Dist(pb)
					//mmv2v:exact Dist is exactly 0 only for identical coordinates (co-located sentinel)
					if d > w.cfg.InterferenceRange || d == 0 {
						continue
					}
					blockers := w.countBlockers(a, b, d.M(), maxDiag)
					gain := w.model.PathGainLin(d, blockers) * w.shadowFactor(a, b)
					if w.linkFault != nil {
						gain *= w.linkFault.LinkFactorLin(a, b)
					}
					bAB := pa.BearingTo(pb)
					bBA := geom.NormalizeBearing(bAB + geom.Bearing(math.Pi))
					//mmv2v:alloc amortized: per-vehicle link tables grow to steady-state degree and are reused across refreshes
					w.links[a] = append(w.links[a], Link{J: int32(b), Blockers: int32(blockers), Dist: d,
						Bearing: bAB, BackBearing: bBA, PathGainLin: gain})
					//mmv2v:alloc amortized: same reused backing array, mirror entry of the pair
					w.links[b] = append(w.links[b], Link{J: int32(a), Blockers: int32(blockers), Dist: d,
						Bearing: bBA, BackBearing: bAB, PathGainLin: gain})
					entries += 2
					if blockers > 0 {
						nlos++
					}
				}
			}
		}
	}
	w.obsRefreshes.Inc()
	w.obsRefreshLinks.Observe(float64(entries))
	w.obsNLOSLinks.Add(uint64(nlos))

	w.rebuildIndex()
}

// rebuildIndex canonicalizes per-vehicle link order (ascending partner rank
// — what the x-sweep produced by construction, and what Link
// binary-searches) and derives the LOS neighbor sets.
func (w *World) rebuildIndex() {
	for i := range w.neighbors {
		w.neighbors[i] = w.neighbors[i][:0]
	}
	for i, ls := range w.links {
		w.sortLinksByRank(ls)
		for _, l := range ls {
			if l.Blockers == 0 && l.Dist <= w.cfg.CommRange {
				//mmv2v:alloc amortized: neighbor sets grow to steady-state degree and are reused across refreshes
				w.neighbors[i] = append(w.neighbors[i], int(l.J))
			}
		}
	}
}

// sortLinksByRank sorts a link slice by ascending partner x-rank. Ranks are
// unique, so the order is total and independent of both the cell
// enumeration order that produced the slice and the sort algorithm. Short
// slices insertion-sort; the long per-vehicle tables of dense road-graph
// worlds go through a median-of-three quicksort so the canonicalization
// pass stays O(k log k).
func (w *World) sortLinksByRank(ls []Link) {
	for len(ls) > 24 {
		p := w.partitionLinks(ls)
		// Recurse into the smaller half; loop on the larger to bound stack depth.
		if p < len(ls)-p-1 {
			w.sortLinksByRank(ls[:p])
			ls = ls[p+1:]
		} else {
			w.sortLinksByRank(ls[p+1:])
			ls = ls[:p]
		}
	}
	for i := 1; i < len(ls); i++ {
		l := ls[i]
		r := w.rank[l.J]
		j := i - 1
		for j >= 0 && w.rank[ls[j].J] > r {
			ls[j+1] = ls[j]
			j--
		}
		ls[j+1] = l
	}
}

// partitionLinks Lomuto-partitions ls around a median-of-three pivot rank
// and returns the pivot's final index.
func (w *World) partitionLinks(ls []Link) int {
	hi := len(ls) - 1
	m := hi / 2
	r0, rm, rh := w.rank[ls[0].J], w.rank[ls[m].J], w.rank[ls[hi].J]
	var pi int
	switch {
	case (rm <= r0) == (r0 <= rh):
		pi = 0
	case (r0 <= rm) == (rm <= rh):
		pi = m
	default:
		pi = hi
	}
	ls[pi], ls[hi] = ls[hi], ls[pi]
	p := w.rank[ls[hi].J]
	i := 0
	for j := 0; j < hi; j++ {
		if w.rank[ls[j].J] < p {
			ls[i], ls[j] = ls[j], ls[i]
			i++
		}
	}
	ls[i], ls[hi] = ls[hi], ls[i]
	return i
}

// sortOrderByX insertion-sorts the cached vehicle permutation by x
// coordinate. The sort is stable, so ties keep vehicle-index order.
func (w *World) sortOrderByX() {
	order := w.order
	for i := 1; i < len(order); i++ {
		v := order[i]
		x := w.pos[v].X
		j := i - 1
		for j >= 0 && w.pos[order[j]].X > x {
			order[j+1] = order[j]
			j--
		}
		order[j+1] = v
	}
}

// shadowFactor returns the linear per-pair log-normal shadowing factor, or
// 1 when shadowing is disabled. The draw is a pure function of (seed, pair)
// — static for a run, independent across pairs (quasi-static shadowing from
// the pair's surrounding geometry).
func (w *World) shadowFactor(a, b int) float64 {
	sigma := w.cfg.Channel.ShadowSigmaDB
	//mmv2v:exact disabled-feature sentinel: sigma is exactly 0 iff shadowing was not configured
	if sigma == 0 {
		return 1
	}
	if a > b {
		a, b = b, a
	}
	// Box–Muller from two uniform hashes of the pair identity.
	u1 := float64(xrand.Mix(w.cfg.ShadowSeed, 0x5ad0, uint64(a), uint64(b))%(1<<52)+1) / float64(int64(1)<<52)
	u2 := float64(xrand.Mix(w.cfg.ShadowSeed, 0x5ad1, uint64(a), uint64(b))%(1<<52)) / float64(int64(1)<<52)
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return sigma.Times(z).Linear()
}

// countBlockers counts vehicle bodies crossing the a–b segment, excluding
// the endpoints' own bodies. Candidates come from the spatial-hash cells
// overlapping the segment's bounding box padded by the largest body
// half-diagonal, then pass two per-candidate culls — center inside the
// padded bounding box, and center within its own half-diagonal of the LOS
// line — before the exact oriented-rectangle test. Both culls are sound
// supersets on any body heading, so counts are identical to an exhaustive
// scan. dM is the a–b distance in meters.
func (w *World) countBlockers(a, b int, dM, maxDiag float64) int {
	pa, pb := w.pos[a], w.pos[b]
	lox, hix := math.Min(pa.X, pb.X), math.Max(pa.X, pb.X)
	loy, hiy := math.Min(pa.Y, pb.Y), math.Max(pa.Y, pb.Y)
	x0, x1 := w.cellX(lox-maxDiag), w.cellX(hix+maxDiag)
	y0, y1 := w.cellY(loy-maxDiag), w.cellY(hiy+maxDiag)
	abx, aby := pb.X-pa.X, pb.Y-pa.Y
	pos, halfDiag, frames := w.pos, w.halfDiag, w.frames
	blockers := 0
	for gy := y0; gy <= y1; gy++ {
		for gx := x0; gx <= x1; gx++ {
			for _, ci := range w.cells[gy*w.cellsX+gx] {
				c := int(ci)
				if c == a || c == b {
					continue
				}
				pc := pos[c]
				diag := halfDiag[c]
				if pc.X < lox-diag || pc.X > hix+diag || pc.Y < loy-diag || pc.Y > hiy+diag {
					continue
				}
				// Perpendicular distance from the candidate's center to the
				// LOS line exceeds its half-diagonal → no part of the body
				// can reach the segment.
				cross := abx*(pc.Y-pa.Y) - aby*(pc.X-pa.X)
				if cross > diag*dM || -cross > diag*dM {
					continue
				}
				if frames[c].SegmentIntersects(pa, pb) {
					blockers++
				}
			}
		}
	}
	return blockers
}

// Link returns the pair-table entry from i toward j, if within interference
// range: one binary search of i's link slice, which is sorted by partner
// x-rank.
//
//mmv2v:hotpath the per-slot link probe; pinned by BenchmarkLinkLookup
func (w *World) Link(i, j int) (Link, bool) {
	ls := w.links[i]
	rj := w.rank[j]
	lo, hi := 0, len(ls)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if w.rank[ls[mid].J] < rj {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ls) && int(ls[lo].J) == j {
		return ls[lo], true
	}
	return Link{}, false
}

// Links returns all pair-table entries of vehicle i (within interference
// range). Callers must not retain the slice across Refresh.
func (w *World) Links(i int) []Link { return w.links[i] }

// Neighbors returns vehicle i's current one-hop neighbor set: LOS vehicles
// within CommRange (the OHM task set, Sec. II-B). Callers must not retain
// the slice across Refresh.
func (w *World) Neighbors(i int) []int { return w.neighbors[i] }

// NeighborSnapshot deep-copies all neighbor sets, for freezing the metric
// denominator at a window boundary.
func (w *World) NeighborSnapshot() [][]int {
	out := make([][]int, w.n)
	for i := range out {
		out[i] = append([]int(nil), w.neighbors[i]...)
	}
	return out
}

// AvgNeighborCount returns the mean LOS neighbor set size — the quantity the
// paper's Fig. 6 scenarios are labeled with (5, 6, 7, 8).
func (w *World) AvgNeighborCount() float64 {
	if w.n == 0 {
		return 0
	}
	total := 0
	for i := 0; i < w.n; i++ {
		total += len(w.neighbors[i])
	}
	return float64(total) / float64(w.n)
}

// TotalLinks returns the number of directed link-table entries of the
// current snapshot (diagnostics for scale scenarios).
func (w *World) TotalLinks() int {
	total := 0
	for i := range w.links {
		total += len(w.links[i])
	}
	return total
}

// Aim is a beam resolved for gain evaluation: its boresight and the antenna
// pattern of its width, looked up once (World.Aim) and then evaluated
// against any number of links.
type Aim struct {
	Bearing geom.Bearing
	pattern *channel.Pattern
}

// Aim resolves a beam's antenna pattern from the world's pattern cache. A
// quasi-omni beam gets the isotropic pattern, whose gain is exactly 1 at
// every angle.
func (w *World) Aim(beam phy.Beam) Aim {
	if beam.IsOmni() {
		return Aim{Bearing: beam.Bearing, pattern: &w.omni}
	}
	return Aim{Bearing: beam.Bearing, pattern: w.patterns.Get(beam.Width)}
}

// RxPowerMwOn is the gain kernel, the one formula behind every received
// power: the power l's owner receives from l.J when l.J transmits with tx
// and the owner listens with rx. It reads only l: BackBearing is l.J's
// bearing toward the owner and Bearing the owner's toward l.J.
func (w *World) RxPowerMwOn(l *Link, tx, rx Aim) units.MilliWatt {
	gTx := tx.pattern.Gain(geom.AngleDiff(tx.Bearing, l.BackBearing)) // tx's gain toward rx (Eq. 2)
	gRx := rx.pattern.Gain(geom.AngleDiff(rx.Bearing, l.Bearing))     // rx's gain toward tx
	return units.MilliWatt(w.model.TxPowerMw().MW() * gTx * l.PathGainLin * gRx)
}

// RxPowerMw returns the power vehicle rx receives from tx given both beam
// configurations, or 0 if the pair is out of interference range.
func (w *World) RxPowerMw(tx, rx int, txBeam, rxBeam phy.Beam) units.MilliWatt {
	l, ok := w.Link(rx, tx)
	if !ok {
		return 0
	}
	return w.RxPowerMwOn(&l, w.Aim(txBeam), w.Aim(rxBeam))
}

// SNRdB returns the interference-free SNR of a directed link with the given
// beams, or -Inf when out of range.
func (w *World) SNRdB(tx, rx int, txBeam, rxBeam phy.Beam) units.DB {
	p := w.RxPowerMw(tx, rx, txBeam, rxBeam)
	//mmv2v:exact RxPowerMw returns exactly 0 as its out-of-range/beam-miss sentinel
	if p == 0 {
		return units.DB(math.Inf(-1))
	}
	return units.RatioDB(p, w.model.NoiseMw())
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
