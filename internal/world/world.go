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
// graphs.
//
// Vehicles move centimeters per refresh, so the cell scans are not repeated
// every refresh. Verlet lists, the neighbor lists of molecular dynamics,
// record every pair within InterferenceRange plus a 2 m skin and, for each
// pair, the vehicles whose bodies come within the skin of its line of
// sight, gathered from the build's positions the first time one of the
// pair owner's pairs is read. While a vehicle stays within half the skin of
// where the lists were built, its pairs and their blockers are read from
// the lists; a vehicle that moved farther (a lane change, a ring wrap, a
// turn, or accumulated drift) is loose, and its pairs are enumerated and
// counted by the cell scans as before. The lists are rebuilt once the loose
// work outgrows them. Counts are exact either way (DESIGN.md §10).
//
// The table is refreshed at the paper's 5 ms cadence ("vehicle position and
// link quality is updated every 5 ms") into one flat array: each vehicle's
// entries sit contiguously, sorted by partner x-rank, so the straight-road
// special case produces byte-identical tables to the sweep the grid
// replaced. Between refreshes a pair query is one binary search of the
// querying vehicle's entries (total size O(links), never O(n²)), which is
// what makes the event-driven control plane (144 sector slots + 40
// negotiation slots per frame) affordable and lets vehicle counts scale
// without a dense pair matrix.
//
// Protocols read only a fraction of the table between two refreshes, so a
// refresh writes each in-range pair's two 8-byte slots, partner and pending
// marker, and leaves the pair pending. Its distance, blocker count, path
// gain and bearings are completed the first time either entry is read, from
// the same refresh's positions, bodies and lists, into the slots and a
// parallel array of payloads, and the LOS neighbor sets are derived on first
// use: the bits are those an eager refresh writes (DESIGN.md §10).
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

// Validate reports configuration errors. NaN fails every ordered
// comparison, so each range is checked for finiteness first.
func (c Config) Validate() error {
	switch {
	case !finite(c.CommRange.M()):
		return fmt.Errorf("world: non-finite comm range %v", c.CommRange)
	case !finite(c.InterferenceRange.M()):
		return fmt.Errorf("world: non-finite interference range %v", c.InterferenceRange)
	case c.CommRange <= 0:
		return fmt.Errorf("world: non-positive comm range %v", c.CommRange)
	case c.InterferenceRange < c.CommRange:
		return fmt.Errorf("world: interference range %v below comm range %v",
			c.InterferenceRange, c.CommRange)
	}
	return c.Channel.Validate()
}

// finite reports whether x is neither NaN nor ±Inf.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

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
// bearing from J toward the owner (bit for bit J's own entry's Bearing).
// The table stores an entry as a Slot and a Payload; Link and Links
// assemble completed entries into this value.
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

// Slot is the part of a pair-table entry Refresh writes: the partner J and
// the blocker count. J and Blockers are int32, like the world's other
// vehicle indexes, so a slot is 8 bytes. While the entry is pending,
// Blockers holds a negative marker for complete (-1 for a pair with a loose
// member, -2-p for listed pair p), and complete replaces it with the count.
type Slot struct {
	J        int32
	Blockers int32
}

// Pending reports whether the entry still awaits completion.
func (s Slot) Pending() bool { return s.Blockers < 0 }

// Payload is the part of a pair-table entry complete writes, 32 bytes:
// everything a received power needs beside the partner, so the gain kernel
// reads one payload. A pending entry's payload holds whatever an earlier
// refresh left there.
type Payload struct {
	Dist        units.Meter
	Bearing     geom.Bearing
	BackBearing geom.Bearing
	PathGainLin float64
}

// The Verlet lists' margins (DESIGN.md §10). They set how long the lists
// stay useful, not whether the counts are right.
const (
	// verletSkin is the margin, in meters, the lists are built with: pairs
	// out to InterferenceRange + verletSkin, and blocker candidates whose
	// half-diagonal plus verletSkin reaches the line of sight.
	verletSkin = 2.0
	// verletLoose is how far, in meters, a vehicle may sit from its anchor
	// and still be read from the lists: half the skin, less a micrometer
	// that absorbs the rounding of the culls.
	verletLoose = verletSkin/2 - 1e-6
)

// World is the live geometric + radio state. Create with New; refresh with
// Refresh after advancing traffic. Not safe for concurrent use.
type World struct {
	cfg      Config
	fleet    traffic.Fleet
	model    *channel.Model
	patterns *channel.PatternCache
	// omni is the isotropic pattern quasi-omni beams resolve to.
	omni channel.Pattern

	n       int
	pos     []geom.Vec
	heading []geom.Bearing
	speed   []units.MeterPerSec
	// The pair table in CSR form: vehicle i's entries are
	// slots[linkStart[i]:linkStart[i+1]], in ascending partner rank, with
	// their payloads at the same indexes of payloads, and its LOS neighbors
	// nbrs[nbrStart[i]:nbrStart[i+1]], derived from the table when
	// nbrsStale. fill holds each vehicle's degree, then its write cursor,
	// while Refresh fills slots. linkBuf holds the entries Links assembles.
	slots     []Slot
	payloads  []Payload
	linkStart []int32
	nbrs      []int
	nbrStart  []int32
	nbrsStale bool
	fill      []int32
	linkBuf   []Link
	// halfLen/halfWid/halfDiag cache per-vehicle body half extents and the
	// half-diagonal bound used to prune blocker candidates; frames cache
	// each body's corner geometry for the blockage tests (one sincos per
	// vehicle per refresh instead of one per candidate test).
	halfLen  []float64
	halfWid  []float64
	halfDiag []float64
	frames   []geom.BodyFrame
	// maxDiag is the largest body half-diagonal of the last refresh, the
	// padding of the blocker scans complete runs.
	maxDiag float64

	// order is the x-sorted vehicle permutation; rank its inverse. They
	// persist across Refresh calls: positions move only micrometers per
	// 5 ms tick, so re-sorting the previous permutation is nearly free.
	// Ranks give links their canonical per-vehicle order (ascending
	// partner rank) — the order the legacy x-sweep produced — which Link
	// binary-searches.
	order []int
	rank  []int32

	// Spatial hash: a dense grid of cells over the fleet's static bounds.
	// Cell c holds vehicles cellVeh[cellStart[c]:cellStart[c+1]], in
	// ascending vehicle index, re-binned every Refresh. reach is the cell
	// radius of the pair scan.
	cellM          float64
	invCellM       float64
	gridMin        geom.Vec
	cellsX, cellsY int
	cellStart      []int32
	cellVeh        []int32
	reach          int

	// Verlet lists, built from the positions recorded in anchor. Owner
	// listOwner[k] (the k-th vehicle in x-order at the build) holds the
	// pairs pairB[listStart[k]:listStart[k+1]] with its higher-ranked
	// partners, in ascending rank, and ownerOf maps each vehicle to its k.
	// An owner's blocker candidates are gathered on first use, from the
	// anchors and the build's cell index (listCellStart/listCellVeh). Pair
	// p's candidates begin at cand[candStart[p]] and end where the owner's
	// next pair's begin, or, for its last pair, at candEnd[k], which is -1
	// until owner k is gathered. loose marks the vehicles now beyond
	// verletLoose of their anchors (nLoose of them), and looseCells one bit
	// per cell holding one. recounted counts the pairs recounted in full
	// since the build.
	anchor        []geom.Vec
	listOwner     []int32
	ownerOf       []int32
	listStart     []int32
	pairB         []int32
	listCellStart []int32
	listCellVeh   []int32
	candStart     []int32
	candEnd       []int32
	cand          []int32
	loose         []bool
	looseCells    []uint64
	nLoose        int
	recounted     int

	// linkFault, when non-nil, multiplies every completed link's path gain
	// by an extra factor (transient blockage bursts; see internal/faults).
	// It is the hook of the last Refresh: SetLinkFault installs nextFault,
	// which the next Refresh takes up.
	linkFault, nextFault LinkFault

	// Refresh statistics handles (nil-safe no-ops until SetObs installs a
	// live registry).
	obsRefreshes    *obs.Counter
	obsRefreshLinks *obs.Histogram
	obsNLOSLinks    *obs.Counter
	obsListBuilds   *obs.Counter
}

// LinkFault is the world's fault-injection hook: an extra linear gain
// factor (≤ 1) applied to pair (a, b) at each refresh. The LOS neighbor
// sets — the OHM task definition — are unaffected, so faults degrade what
// protocols achieve, never what they are asked to achieve.
type LinkFault interface {
	// Refreshed is called once per Refresh, before any of its entries is
	// completed.
	Refreshed()
	// LinkFactorLin returns pair (a, b)'s factor at the refresh last
	// notified, however long after it the pair is completed.
	LinkFactorLin(a, b int) float64
}

// SetLinkFault installs a link-fault hook; nil restores the clean channel.
// It takes effect at the next Refresh, so the last refresh's entries keep
// the channel they were refreshed under whenever they are completed.
func (w *World) SetLinkFault(f LinkFault) { w.nextFault = f }

// SetObs installs the statistics registry. A nil registry (the default)
// hands out nil handles, so the Refresh hot path stays a no-op.
func (w *World) SetObs(r *obs.Registry) {
	w.obsRefreshes = r.Counter("world.refreshes")
	w.obsRefreshLinks = r.Histogram("world.refresh_links", obs.ExpBuckets(16, 2, 11))
	w.obsNLOSLinks = r.Counter("world.nlos_links")
	w.obsListBuilds = r.Counter("world.list_builds")
}

// New builds a World over a mobility substrate (the ring road or a road
// graph). Refresh is called once, every list owner gathered, so the
// candidate buffer is sized before the first measured refresh, and the
// neighbor sets derived, so the world is immediately queryable.
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
		cfg:         cfg,
		fleet:       fleet,
		model:       model,
		patterns:    channel.NewPatternCache(cfg.Channel.SideLobeDB),
		omni:        channel.OmniPattern(),
		n:           n,
		pos:         make([]geom.Vec, n),
		heading:     make([]geom.Bearing, n),
		speed:       make([]units.MeterPerSec, n),
		linkStart:   make([]int32, n+1),
		nbrStart:    make([]int32, n+1),
		fill:        make([]int32, n),
		halfLen:     make([]float64, n),
		halfWid:     make([]float64, n),
		halfDiag:    make([]float64, n),
		frames:      make([]geom.BodyFrame, n),
		order:       make([]int, n),
		rank:        make([]int32, n),
		cellVeh:     make([]int32, n),
		anchor:      make([]geom.Vec, n),
		listOwner:   make([]int32, n),
		ownerOf:     make([]int32, n),
		listStart:   make([]int32, n+1),
		listCellVeh: make([]int32, n),
		candEnd:     make([]int32, n),
		loose:       make([]bool, n),
		// Past any list length, so the first Refresh builds the lists.
		recounted: math.MaxInt32,
	}
	for i := range w.order {
		w.order[i] = i
	}
	w.initGrid()
	w.Refresh()
	w.gatherAll()
	w.deriveNeighbors()
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
	// than the per-refresh clear of an enormous dense grid. The count is
	// taken in floats, because a cell far below the span overflows int.
	const maxCells = 1 << 21
	for (math.Floor(spanX/cell)+1)*(math.Floor(spanY/cell)+1) > maxCells {
		cell *= 2
	}
	w.cellM = cell
	w.invCellM = 1 / cell
	w.cellsX = int(spanX/cell) + 1
	w.cellsY = int(spanY/cell) + 1
	cells := w.cellsX * w.cellsY
	w.cellStart = make([]int32, cells+1)
	w.listCellStart = make([]int32, cells+1)
	w.looseCells = make([]uint64, (cells+63)/64)
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

// cellOf returns the index of the cell holding point p.
func (w *World) cellOf(p geom.Vec) int { return w.cellY(p.Y)*w.cellsX + w.cellX(p.X) }

// cell returns the vehicles binned in cell c.
func (w *World) cell(c int) []int32 { return w.cellVeh[w.cellStart[c]:w.cellStart[c+1]] }

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

// rebuildCells re-bins every vehicle into the spatial hash by counting
// sort: count each cell's vehicles, turn the counts into end offsets, then
// place vehicles in descending index so each cell lists them ascending.
func (w *World) rebuildCells() {
	start := w.cellStart
	clear(start)
	for i := 0; i < w.n; i++ {
		start[w.cellOf(w.pos[i])]++
	}
	sum := int32(0)
	for c := range start {
		sum += start[c]
		start[c] = sum
	}
	for i := w.n - 1; i >= 0; i-- {
		c := w.cellOf(w.pos[i])
		start[c]--
		w.cellVeh[start[c]] = int32(i)
	}
}

// Refresh recomputes positions and the pair table from the fleet state.
// Call after every traffic step (the paper's 5 ms update). It writes every
// in-range pair's two entries pending, whatever registry or link fault is
// installed, and notifies the link fault it takes up.
//
//mmv2v:hotpath the 5 ms link-table rebuild; pinned by BenchmarkRefresh*
func (w *World) Refresh() {
	w.loadPoses()
	w.linkFault = w.nextFault
	if w.linkFault != nil {
		w.linkFault.Refreshed()
	}

	// Re-sort the cached x-order permutation. The previous tick's order is
	// nearly sorted, so the insertion sort is O(n) amortized and
	// allocation-free. Ranks define the canonical link order below.
	w.sortOrderByX()
	for k, i := range w.order {
		w.rank[i] = int32(k)
	}

	w.maxDiag = w.rebuildGeometry()
	w.rebuildCells()
	if w.markLoose() {
		w.buildLists()
	}

	// Two passes over the same pairs: the first counts every vehicle's
	// degree into fill, the second writes each pair's two entries at the
	// vehicles' cursors.
	clear(w.fill)
	w.listedPairs(false)
	w.loosePairs(false)
	entries := int32(0)
	for i, deg := range w.fill {
		w.linkStart[i], w.fill[i] = entries, entries
		entries += deg
	}
	w.linkStart[w.n] = entries
	w.slots = grow(w.slots, int(entries))
	w.payloads = grow(w.payloads, int(entries))
	w.listedPairs(true)
	w.loosePairs(true)
	// The fill left each vehicle's slots nearly sorted by partner rank, the
	// order Link binary-searches, so an insertion sort suffices.
	for i := 0; i < w.n; i++ {
		w.sortSlotsByRank(w.slots[w.linkStart[i]:w.linkStart[i+1]])
	}
	w.nbrsStale = true
	w.obsRefreshes.Inc()
	w.obsRefreshLinks.Observe(float64(entries))
}

// markLoose flags the vehicles beyond verletLoose of their anchors and the
// cells holding them. It reports whether the lists should be rebuilt: when
// the pairs recounted in full since the build, plus this refresh's pending
// loose work (the loose vehicles' degrees at the previous refresh), exceed
// the pair list's length.
func (w *World) markLoose() bool {
	clear(w.looseCells)
	w.nLoose = 0
	pending := 0
	for i := 0; i < w.n; i++ {
		dx, dy := w.pos[i].X-w.anchor[i].X, w.pos[i].Y-w.anchor[i].Y
		loose := dx*dx+dy*dy > verletLoose*verletLoose
		w.loose[i] = loose
		if loose {
			w.nLoose++
			pending += int(w.linkStart[i+1] - w.linkStart[i])
			c := uint(w.cellOf(w.pos[i]))
			w.looseCells[c/64] |= 1 << (c % 64)
		}
	}
	return w.recounted+pending > len(w.pairB)
}

// buildLists anchors every vehicle at its current position and rebuilds
// the Verlet pair lists: every pair within InterferenceRange + verletSkin,
// once, under its lower-ranked member in ascending partner rank. It copies
// the cell index for gatherOwner and leaves every owner ungathered.
func (w *World) buildLists() {
	copy(w.anchor, w.pos)
	copy(w.listCellStart, w.cellStart)
	copy(w.listCellVeh, w.cellVeh)
	clear(w.loose)
	clear(w.looseCells)
	w.nLoose, w.recounted = 0, 0
	listM := w.cfg.InterferenceRange.M() + verletSkin
	// The cull compares squared distances, which round differently from
	// Dist near listM. That is harmless: two settled vehicles each sit
	// within verletLoose of their anchors, so a pair in range now was within
	// listM less 2 µm at the build, and the rounding is some 1e-13 m.
	listM2 := listM * listM
	reach := int(math.Ceil(listM / w.cellM))
	pairs := w.pairB[:0]
	for k, a := range w.order {
		w.listOwner[k], w.ownerOf[a], w.candEnd[k] = int32(a), int32(k), -1
		first := len(pairs)
		w.listStart[k] = int32(first)
		pa, ra := w.pos[a], w.rank[a]
		cx, cy := w.cellX(pa.X), w.cellY(pa.Y)
		x0, x1 := maxInt(cx-reach, 0), minInt(cx+reach, w.cellsX-1)
		y0, y1 := maxInt(cy-reach, 0), minInt(cy+reach, w.cellsY-1)
		// Columns outermost, so partners arrive in nearly ascending rank.
		for gx := x0; gx <= x1; gx++ {
			for gy := y0; gy <= y1; gy++ {
				for _, b := range w.cell(gy*w.cellsX + gx) {
					if w.rank[b] <= ra {
						continue
					}
					dx, dy := w.pos[b].X-pa.X, w.pos[b].Y-pa.Y
					if dx > listM || -dx > listM || dy > listM || -dy > listM || dx*dx+dy*dy > listM2 {
						continue
					}
					pairs = push(pairs, b)
				}
			}
		}
		w.sortByRank(pairs[first:])
	}
	w.listStart[w.n] = int32(len(pairs))
	w.pairB = settle(w.pairB, pairs)
	w.candStart = grow(w.candStart, len(pairs))
	w.cand = w.cand[:0]
	w.obsListBuilds.Inc()
}

// gatherOwner appends to cand the blocker candidates of owner k's pairs, in
// pair order, recording where each pair's begin in candStart and where the
// last pair's end in candEnd[k]. A pair's candidates are the vehicles other
// than its members that pass the two blocker culls widened by verletSkin,
// in the order the build's cells list them. It reads only what the build
// left, the anchors and the cell index copy, and the body extents, which
// are constant over a run, so an owner gathered any number of refreshes
// after the build gets the lists an eager build would have. Callers settle
// the buffer.
func (w *World) gatherOwner(k int) {
	a := w.listOwner[k]
	pa := w.anchor[a]
	cand := w.cand
	var s sight
	for p := w.listStart[k]; p < w.listStart[k+1]; p++ {
		b := w.pairB[p]
		w.candStart[p] = int32(len(cand))
		s.set(pa, w.anchor[b], pa.Dist(w.anchor[b]).M())
		x0, x1, y0, y1 := w.cellRange(&s, w.maxDiag+verletSkin)
		for gy := y0; gy <= y1; gy++ {
			for gx := x0; gx <= x1; gx++ {
				ci := gy*w.cellsX + gx
				for _, c := range w.listCellVeh[w.listCellStart[ci]:w.listCellStart[ci+1]] {
					if c != a && c != b && s.near(w.anchor[c], w.halfDiag[c]+verletSkin) {
						cand = push(cand, c)
					}
				}
			}
		}
	}
	w.candEnd[k] = int32(len(cand))
	w.cand = cand
}

// gatherAll gathers every owner not gathered since the build and trims the
// candidate buffer once.
func (w *World) gatherAll() {
	old := w.cand
	for k, end := range w.candEnd {
		if end < 0 {
			w.gatherOwner(k)
		}
	}
	w.cand = settle(old, w.cand)
}

// candidates returns listed pair p's blocker candidates; i and j are its
// members. Its owner is the member listed first at the build, and is
// gathered on first use.
func (w *World) candidates(i, j int, p int32) []int32 {
	k := min(w.ownerOf[i], w.ownerOf[j])
	if w.candEnd[k] < 0 {
		old := w.cand
		w.gatherOwner(int(k))
		w.cand = settle(old, w.cand)
	}
	end := w.candEnd[k]
	if p+1 < w.listStart[k+1] {
		end = w.candStart[p+1]
	}
	return w.cand[w.candStart[p]:end]
}

// listedPairs walks the listed pairs of two settled (not loose) vehicles
// that are in range. With put false it counts each vehicle's degree into
// fill; with put true it writes the pairs' pending slots.
func (w *World) listedPairs(put bool) {
	for k, a32 := range w.listOwner {
		a := int(a32)
		if w.loose[a] {
			continue
		}
		for p := w.listStart[k]; p < w.listStart[k+1]; p++ {
			b := int(w.pairB[p])
			if w.loose[b] || !w.inRange(w.pos[a], w.pos[b]) {
				continue
			}
			if put {
				w.put(a, b, -2-p)
			} else {
				w.fill[a]++
				w.fill[b]++
			}
		}
	}
}

// rangeBand is the relative width of the band around a squared range
// inside which the squared distance cannot decide against Dist. The squared
// distance and Dist each round by a few ulps, far inside it.
const rangeBand = 1e-9

// inRange reports whether pa and pb are a pair of the table: distinct, and
// no farther apart by Dist than InterferenceRange. It decides from the
// squared distance and runs Dist (a Hypot) only inside the rangeBand, where
// Dist's rounding can tip the verdict; a difference, like Dist, is exactly
// 0 only for identical coordinates.
func (w *World) inRange(pa, pb geom.Vec) bool {
	dx, dy := pb.X-pa.X, pb.Y-pa.Y
	d2 := dx*dx + dy*dy
	r := w.cfg.InterferenceRange.M()
	if d2 < r*r*(1-rangeBand) {
		//mmv2v:exact a difference is exactly 0 only for identical coordinates, as Dist is
		return dx != 0 || dy != 0
	}
	return d2 <= r*r*(1+rangeBand) && !(pa.Dist(pb) > w.cfg.InterferenceRange)
}

// beyond reports whether pa and pb are farther apart by Dist than r,
// decided from the squared distance alone: false inside the rangeBand,
// where only Dist can tell.
func beyond(pa, pb geom.Vec, r float64) bool {
	dx, dy := pb.X-pa.X, pb.Y-pa.Y
	return dx*dx+dy*dy > r*r*(1+rangeBand)
}

// loosePairs walks the in-range pairs with a loose member, found by each
// loose vehicle's cell scan out to the interference range (a pair of two
// loose vehicles from its lower-ranked one). With put false it counts
// degrees into fill; with put true it writes the pairs' pending slots and
// counts them as recounted in full.
func (w *World) loosePairs(put bool) {
	if w.nLoose == 0 {
		return
	}
	rangeM := w.cfg.InterferenceRange.M()
	for a := 0; a < w.n; a++ {
		if !w.loose[a] {
			continue
		}
		pa, ra := w.pos[a], w.rank[a]
		cx, cy := w.cellX(pa.X), w.cellY(pa.Y)
		x0, x1 := maxInt(cx-w.reach, 0), minInt(cx+w.reach, w.cellsX-1)
		y0, y1 := maxInt(cy-w.reach, 0), minInt(cy+w.reach, w.cellsY-1)
		// Columns outermost, so a's entries arrive in nearly ascending rank.
		for gx := x0; gx <= x1; gx++ {
			for gy := y0; gy <= y1; gy++ {
				for _, bi := range w.cell(gy*w.cellsX + gx) {
					b := int(bi)
					if b == a || w.loose[b] && w.rank[b] < ra {
						continue
					}
					pb := w.pos[b]
					if pb.X-pa.X > rangeM || pa.X-pb.X > rangeM ||
						pb.Y-pa.Y > rangeM || pa.Y-pb.Y > rangeM || !w.inRange(pa, pb) {
						continue
					}
					if put {
						w.put(a, b, -1)
						w.recounted++
					} else {
						w.fill[a]++
						w.fill[b]++
					}
				}
			}
		}
	}
}

// put writes pair (a, b)'s two pending slots at the vehicles' fill
// cursors: the partner, with pending, complete's marker, in Blockers. The
// payloads are left as they are until complete.
func (w *World) put(a, b int, pending int32) {
	ka, kb := w.fill[a], w.fill[b]
	w.slots[ka] = Slot{J: int32(b), Blockers: pending}
	w.slots[kb] = Slot{J: int32(a), Blockers: pending}
	w.fill[a], w.fill[b] = ka+1, kb+1
}

// complete fills pending entry e, which vehicle i owns, and its mirror in
// the partner's slice: the blocker count (in full for a pair with a loose
// member, from the pair's candidate list otherwise, gathered with its
// owner's on first use) into both slots, and the distance, path gain and
// both bearings into both payloads. Every quantity is computed from the
// pair's lower-ranked member, the orientation the legacy x-sweep used, and
// from the last refresh's positions, bodies, cells and lists, so the bits
// are an eager refresh's; Dist takes the absolute value of each coordinate
// difference, so it is the same bits from either member.
func (w *World) complete(i int, e int32) {
	marker := w.slots[e].Blockers
	j := int(w.slots[e].J)
	a, b := i, j
	if w.rank[j] < w.rank[i] {
		a, b = j, i
	}
	pa, pb := w.pos[a], w.pos[b]
	d := pa.Dist(pb)
	var blockers int
	if marker == -1 {
		blockers = w.countBlockers(a, b, d.M(), w.maxDiag)
	} else {
		var s sight
		s.set(pa, pb, d.M())
		blockers = w.listedBlockers(&s, w.candidates(i, j, -2-marker))
	}
	if blockers > 0 {
		w.obsNLOSLinks.Inc()
	}
	gain := w.model.PathGainLin(d, blockers) * w.shadowFactor(a, b)
	if w.linkFault != nil {
		gain *= w.linkFault.LinkFactorLin(a, b)
	}
	bAB := pa.BearingTo(pb)
	bBA := geom.NormalizeBearing(bAB + geom.Bearing(math.Pi))
	ea, eb := e, w.mirror(j, i, a == i)
	if a != i {
		ea, eb = eb, ea
	}
	w.slots[ea].Blockers, w.slots[eb].Blockers = int32(blockers), int32(blockers)
	w.payloads[ea] = Payload{Dist: d, Bearing: bAB, BackBearing: bBA, PathGainLin: gain}
	w.payloads[eb] = Payload{Dist: d, Bearing: bBA, BackBearing: bAB, PathGainLin: gain}
}

// mirror returns the index of j's entry toward i; below reports whether i
// ranks below j, so that the entry is among the front ones of j's
// rank-sorted slice. On the road j's partners on either side of it are
// nearly all vehicles ranked between the end entry's and j, so the rank
// offset from that end usually lands on the entry; otherwise a scan from
// that end finds it, reading a quarter of the slice on average where a
// binary search by rank would read a cache line per probe.
func (w *World) mirror(j, i int, below bool) int32 {
	lo, hi := w.linkStart[j], w.linkStart[j+1]-1
	if below {
		if m := lo + w.rank[i] - w.rank[w.slots[lo].J]; m <= hi && w.slots[m].J == int32(i) {
			return m
		}
		m := lo
		for w.slots[m].J != int32(i) {
			m++
		}
		return m
	}
	if m := hi - (w.rank[w.slots[hi].J] - w.rank[i]); m >= lo && w.slots[m].J == int32(i) {
		return m
	}
	m := hi
	for w.slots[m].J != int32(i) {
		m--
	}
	return m
}

// deriveNeighbors derives the LOS neighbor sets from the table. A pending
// entry whose squared distance puts it beyond CommRange stays pending; the
// others are completed, and their Dist decides.
func (w *World) deriveNeighbors() {
	nbrs := w.nbrs[:0]
	commM := w.cfg.CommRange.M()
	for i := 0; i < w.n; i++ {
		w.nbrStart[i] = int32(len(nbrs))
		for e := w.linkStart[i]; e < w.linkStart[i+1]; e++ {
			s := &w.slots[e]
			if s.Blockers < 0 {
				if beyond(w.pos[i], w.pos[s.J], commM) {
					continue
				}
				w.complete(i, e)
			}
			if s.Blockers == 0 && w.payloads[e].Dist <= w.cfg.CommRange {
				nbrs = push(nbrs, int(s.J))
			}
		}
	}
	w.nbrStart[w.n] = int32(len(nbrs))
	w.nbrs = settle(w.nbrs, nbrs)
	w.nbrsStale = false
}

// sortSlotsByRank insertion-sorts a slot slice by ascending partner x-rank.
// Ranks are unique, so the order is total and independent of the order the
// slots were written in.
func (w *World) sortSlotsByRank(ss []Slot) {
	for i := 1; i < len(ss); i++ {
		s := ss[i]
		r := w.rank[s.J]
		j := i - 1
		for j >= 0 && w.rank[ss[j].J] > r {
			ss[j+1] = ss[j]
			j--
		}
		ss[j+1] = s
	}
}

// sortByRank insertion-sorts vehicle indexes by ascending x-rank.
func (w *World) sortByRank(vs []int32) {
	for i := 1; i < len(vs); i++ {
		v := vs[i]
		r := w.rank[v]
		j := i - 1
		for j >= 0 && w.rank[vs[j]] > r {
			vs[j+1] = vs[j]
			j--
		}
		vs[j+1] = v
	}
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

// grow returns s extended to length n. Past its capacity it copies s into
// a new backing array with an eighth of headroom, so the world's buffers
// regrow only past their largest size so far and stay nearly full (append's
// doubling can leave half of an array unused).
func grow[T any](s []T, n int) []T {
	if n > cap(s) {
		//mmv2v:alloc amortized: regrown only past the largest size so far, with 1/8 headroom
		t := make([]T, n, n+n/8)
		copy(t, s)
		return t
	}
	return s[:n]
}

// push appends v to a buffer whose final length is not known in advance.
// It doubles a full backing array, as append does, so building from empty
// allocates about twice the final size rather than nine times; settle
// trims the buffer once it is complete.
func push[T any](s []T, v T) []T {
	if len(s) == cap(s) {
		//mmv2v:alloc amortized: doubles only past the largest size so far, and settle trims it
		t := make([]T, len(s), 2*len(s)+16)
		copy(t, s)
		s = t
	}
	s = s[:len(s)+1]
	s[len(s)-1] = v
	return s
}

// settle returns s, a buffer push filled starting from old, moved to an
// array with an eighth of headroom if push regrew it.
func settle[T any](old, s []T) []T {
	if cap(s) == cap(old) {
		return s
	}
	t := grow([]T(nil), len(s))
	copy(t, s)
	return t
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

// sight is a line of sight from pa to pb, dM meters long, prepared for the
// blocker culls.
type sight struct {
	pa, pb             geom.Vec
	lox, hix, loy, hiy float64
	abx, aby, dM       float64
}

// set aims s from pa to pb, dM meters apart. It assigns the fields one by
// one, so reusing one sight across pairs copies no struct.
func (s *sight) set(pa, pb geom.Vec, dM float64) {
	s.pa, s.pb = pa, pb
	s.lox, s.hix = min(pa.X, pb.X), max(pa.X, pb.X)
	s.loy, s.hiy = min(pa.Y, pb.Y), max(pa.Y, pb.Y)
	s.abx, s.aby, s.dM = pb.X-pa.X, pb.Y-pa.Y, dM
}

// near applies the two blocker culls to a body of half-diagonal diag
// centered at pc: its center lies inside the sight's bounding box padded by
// diag, and within diag of the line of sight. Both are sound supersets on
// any body heading.
func (s *sight) near(pc geom.Vec, diag float64) bool {
	if pc.X < s.lox-diag || pc.X > s.hix+diag || pc.Y < s.loy-diag || pc.Y > s.hiy+diag {
		return false
	}
	cross := s.abx*(pc.Y-s.pa.Y) - s.aby*(pc.X-s.pa.X)
	return !(cross > diag*s.dM || -cross > diag*s.dM)
}

// cellRange returns the cells the sight's bounding box padded by pad
// overlaps.
func (w *World) cellRange(s *sight, pad float64) (x0, x1, y0, y1 int) {
	return w.cellX(s.lox - pad), w.cellX(s.hix + pad), w.cellY(s.loy - pad), w.cellY(s.hiy + pad)
}

// countBlockers counts vehicle bodies crossing the a–b segment, excluding
// the endpoints' own bodies. Candidates come from the spatial-hash cells
// overlapping the segment's bounding box padded by the largest body
// half-diagonal, then pass the two culls before the exact oriented-rectangle
// test, so counts are identical to an exhaustive scan. dM is the a–b
// distance in meters.
func (w *World) countBlockers(a, b int, dM, maxDiag float64) int {
	var s sight
	s.set(w.pos[a], w.pos[b], dM)
	x0, x1, y0, y1 := w.cellRange(&s, maxDiag)
	blockers := 0
	for gy := y0; gy <= y1; gy++ {
		for gx := x0; gx <= x1; gx++ {
			for _, c := range w.cell(gy*w.cellsX + gx) {
				if int(c) != a && int(c) != b && s.near(w.pos[c], w.halfDiag[c]) &&
					w.frames[c].SegmentIntersects(s.pa, s.pb) {
					blockers++
				}
			}
		}
	}
	return blockers
}

// listedBlockers counts the bodies crossing the sight of a pair of settled
// vehicles: its settled candidates from the lists, then the loose vehicles
// in the cells the sight's padded box overlaps. The two sets are disjoint
// and together hold every body that can cross, so the count is
// countBlockers'.
func (w *World) listedBlockers(s *sight, cand []int32) int {
	blockers := 0
	for _, c := range cand {
		if !w.loose[c] && s.near(w.pos[c], w.halfDiag[c]) && w.frames[c].SegmentIntersects(s.pa, s.pb) {
			blockers++
		}
	}
	if w.nLoose == 0 {
		return blockers
	}
	x0, x1, y0, y1 := w.cellRange(s, w.maxDiag)
	for gy := y0; gy <= y1; gy++ {
		for gx := x0; gx <= x1; gx++ {
			ci := uint(gy*w.cellsX + gx)
			if w.looseCells[ci/64]&(1<<(ci%64)) == 0 {
				continue
			}
			for _, c := range w.cell(int(ci)) {
				if w.loose[c] && s.near(w.pos[c], w.halfDiag[c]) && w.frames[c].SegmentIntersects(s.pa, s.pb) {
					blockers++
				}
			}
		}
	}
	return blockers
}

// find returns the table index of i's entry toward j, or -1 if the pair is
// out of interference range: a binary search of i's slots, which are sorted
// by partner x-rank. Ranks are unique, so the slot ranked as j is j's.
func (w *World) find(i, j int) int32 {
	lo, hi := w.linkStart[i], w.linkStart[i+1]
	rj := w.rank[j]
	for lo < hi {
		h := int32(uint32(lo+hi) >> 1)
		if r := w.rank[w.slots[h].J]; r < rj {
			lo = h + 1
		} else if r > rj {
			hi = h
		} else {
			return h
		}
	}
	return -1
}

// Entry returns the payload of the pair-table entry from i toward j,
// completed, or nil if the pair is out of interference range. The payload
// is valid until the next Refresh.
func (w *World) Entry(i, j int) *Payload {
	e := w.find(i, j)
	if e < 0 {
		return nil
	}
	if w.slots[e].Blockers < 0 {
		w.complete(i, e)
	}
	return &w.payloads[e]
}

// Link returns the pair-table entry from i toward j, if within interference
// range, completing it on first read.
//
//mmv2v:hotpath the per-slot link probe; pinned by BenchmarkLinkLookup
func (w *World) Link(i, j int) (l Link, ok bool) {
	e := w.find(i, j)
	if e < 0 {
		return l, false
	}
	if w.slots[e].Blockers < 0 {
		w.complete(i, e)
	}
	w.link(&l, e)
	return l, true
}

// link assembles completed entry e from its slot and payload into l, field
// by field: a Link built as one value took a detour through the stack that
// made Link 2–3 times slower.
func (w *World) link(l *Link, e int32) {
	s, p := &w.slots[e], &w.payloads[e]
	l.J, l.Blockers = s.J, s.Blockers
	l.Dist, l.Bearing, l.BackBearing, l.PathGainLin = p.Dist, p.Bearing, p.BackBearing, p.PathGainLin
}

// Links returns all pair-table entries of vehicle i (within interference
// range), completed, assembled in a buffer the world reuses. Callers must
// not retain the slice across the next Links call or Refresh.
func (w *World) Links(i int) []Link {
	lo, hi := w.linkStart[i], w.linkStart[i+1]
	ls := grow(w.linkBuf, int(hi-lo))
	for e := lo; e < hi; e++ {
		if w.slots[e].Blockers < 0 {
			w.complete(i, e)
		}
		w.link(&ls[e-lo], e)
	}
	w.linkBuf = ls
	return ls[:len(ls):len(ls)]
}

// Entries returns vehicle i's entries as Refresh left them, as two slices
// over the same indexes: the slots, each J set and a Pending slot's
// Blockers a marker, and the payloads, which only Complete fills for a
// pending slot. It serves callers that read a few entries of a slice; Links
// completes them all. Callers must not retain the slices across Refresh.
func (w *World) Entries(i int) ([]Slot, []Payload) {
	lo, hi := w.linkStart[i], w.linkStart[i+1]
	return w.slots[lo:hi:hi], w.payloads[lo:hi:hi]
}

// Complete completes entry k of Entries(i) if it is pending.
func (w *World) Complete(i, k int) {
	if e := w.linkStart[i] + int32(k); w.slots[e].Blockers < 0 {
		w.complete(i, e)
	}
}

// Neighbors returns vehicle i's current one-hop neighbor set: LOS vehicles
// within CommRange (the OHM task set, Sec. II-B). Callers must not retain
// the slice across Refresh.
func (w *World) Neighbors(i int) []int {
	if w.nbrsStale {
		w.deriveNeighbors()
	}
	lo, hi := w.nbrStart[i], w.nbrStart[i+1]
	return w.nbrs[lo:hi:hi]
}

// NeighborSnapshot deep-copies all neighbor sets, for freezing the metric
// denominator at a window boundary.
func (w *World) NeighborSnapshot() [][]int {
	out := make([][]int, w.n)
	for i := range out {
		out[i] = append([]int(nil), w.Neighbors(i)...)
	}
	return out
}

// AvgNeighborCount returns the mean LOS neighbor set size — the quantity the
// paper's Fig. 6 scenarios are labeled with (5, 6, 7, 8).
func (w *World) AvgNeighborCount() float64 {
	if w.n == 0 {
		return 0
	}
	if w.nbrsStale {
		w.deriveNeighbors()
	}
	return float64(len(w.nbrs)) / float64(w.n)
}

// TotalLinks returns the number of directed link-table entries of the
// current snapshot (diagnostics for scale scenarios).
func (w *World) TotalLinks() int { return len(w.slots) }

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
// power: the power the owner of entry l receives from its partner when the
// partner transmits with tx and the owner listens with rx. It reads only
// l's payload: BackBearing is the partner's bearing toward the owner and
// Bearing the owner's toward the partner.
//
// Each Eq. 2 gain is channel.Pattern.Gain(geom.AngleDiff(boresight,
// toward)) written out in place, bit for bit: neither function inlines,
// and the kernel runs millions of times per simulated second. AngleDiff's
// wrap leaves the angle in (−π, π], so Gain's fold of angles beyond π never
// applies and is left out. FuzzGainKernel holds the two forms equal.
func (w *World) RxPowerMwOn(l *Payload, tx, rx Aim) units.MilliWatt {
	// tx's gain toward the owner.
	gTx := tx.pattern.G2
	d := float64(l.BackBearing - tx.Bearing)
	if !(d > -2*math.Pi && d < 2*math.Pi) {
		d = math.Mod(d, 2*math.Pi)
	}
	if d > math.Pi {
		d -= 2 * math.Pi
	} else if d <= -math.Pi {
		d += 2 * math.Pi
	}
	if g := math.Abs(d); g < tx.pattern.Theta1.Rad() {
		x := g / (tx.pattern.Width.Rad() / 2)
		gTx = tx.pattern.G1 * math.Exp(-channel.MainLobeConst*x*x)
	}
	// The owner's gain toward the partner, the same way.
	gRx := rx.pattern.G2
	d = float64(l.Bearing - rx.Bearing)
	if !(d > -2*math.Pi && d < 2*math.Pi) {
		d = math.Mod(d, 2*math.Pi)
	}
	if d > math.Pi {
		d -= 2 * math.Pi
	} else if d <= -math.Pi {
		d += 2 * math.Pi
	}
	if g := math.Abs(d); g < rx.pattern.Theta1.Rad() {
		x := g / (rx.pattern.Width.Rad() / 2)
		gRx = rx.pattern.G1 * math.Exp(-channel.MainLobeConst*x*x)
	}
	return units.MilliWatt(w.model.TxPowerMw().MW() * gTx * l.PathGainLin * gRx)
}

// RxPowerMw returns the power vehicle rx receives from tx given both beam
// configurations, or 0 if the pair is out of interference range.
func (w *World) RxPowerMw(tx, rx int, txBeam, rxBeam phy.Beam) units.MilliWatt {
	l := w.Entry(rx, tx)
	if l == nil {
		return 0
	}
	return w.RxPowerMwOn(l, w.Aim(txBeam), w.Aim(rxBeam))
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
