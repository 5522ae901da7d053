// Package xrand provides deterministic, splittable pseudo-random streams.
//
// Every source of randomness in the simulator — traffic generation, the
// paper's probabilistic role selection, random sector choices in the ROP
// baseline, PCP election in the 802.11ad baseline — derives from a single
// 64-bit scenario seed through named sub-streams, so that an entire
// simulation is reproducible bit-for-bit from one seed. Sub-streams are
// derived by hashing (seed, label, index) with SplitMix64 so that, e.g.,
// vehicle 7's round-3 coin flip is independent of everything else and stable
// across runs regardless of event ordering.
//
// A stream's draws are math/rand's: each method runs the algorithm of the
// math/rand method of the same name over a SplitMix64 Source64, so its
// values equal rand.New over that source bit for bit (pinned by
// TestDrawsMatchMathRand). The draws are written out here rather than
// delegated so that a stream is two words with no heap state: the protocols
// derive a child stream per vehicle per slot.
package xrand

import "math/rand"

// splitMix64 advances the SplitMix64 generator state and returns the next
// output. It is the standard 64-bit finalizer-based mixer from Steele et al.,
// used here to derive independent seeds.
func splitMix64(state uint64) (uint64, uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return state, z ^ (z >> 31)
}

// mixInit is Mix's initial state: the fractional bits of sqrt(2).
const mixInit = 0x6a09e667f3bcc909

// absorb folds one value into a Mix state.
func absorb(state, v uint64) uint64 {
	state ^= v
	state, out := splitMix64(state)
	return state ^ out
}

// squeeze finishes a Mix state into its output.
func squeeze(state uint64) uint64 {
	_, out := splitMix64(state)
	return out
}

// Mix hashes together an arbitrary list of 64-bit values into one
// well-distributed 64-bit value. It is the derivation function used for all
// sub-stream seeds.
func Mix(vs ...uint64) uint64 {
	state := uint64(mixInit)
	for _, v := range vs {
		state = absorb(state, v)
	}
	return squeeze(state)
}

// HashString folds a string into a 64-bit value using FNV-1a, for deriving
// sub-streams from labels.
func HashString(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// sm64 is a SplitMix64 generator implementing math/rand's Source64: 8 bytes
// of state instead of the 5 KB of the default source, which matters because
// the simulator derives millions of child streams.
type sm64 struct {
	state uint64
}

func (s *sm64) Uint64() uint64 {
	var out uint64
	s.state, out = splitMix64(s.state)
	return out
}

func (s *sm64) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *sm64) Seed(seed int64) { s.state = uint64(seed) }

// Source is a deterministic random stream backed by SplitMix64, drawing with
// math/rand's algorithms, and supporting derivation of independent child
// streams.
type Source struct {
	seed uint64
	src  sm64
}

// New returns a Source rooted at the given seed.
func New(seed uint64) *Source {
	return &Source{seed: seed, src: sm64{state: Mix(seed)}}
}

// Seed returns the seed this source was created with.
func (s *Source) Seed() uint64 { return s.seed }

// Child derives an independent stream identified by a label and an arbitrary
// list of indices (for example ("role", vehicleID, round)). Calling Child
// with the same arguments always yields an identically seeded stream, and it
// does not consume state from the parent, so derivation order is irrelevant.
// The child is seeded from Mix(parent seed, HashString(label), idx...).
//
// Child inlines, so a child that does not outlive its caller lives on the
// caller's stack: deriving and drawing from a per-slot stream allocates
// nothing (TestChildAllocFree).
//
//mmv2v:hotpath the per-vehicle, per-slot stream derivation of every protocol; pinned by BenchmarkChild
func (s *Source) Child(label string, idx ...uint64) *Source {
	seed, state := derive(s.seed, label, idx)
	//mmv2v:alloc Child inlines into its caller, so a child that does not escape stays on the caller's stack
	return &Source{seed: seed, src: sm64{state: state}}
}

// derive returns a child's seed, Mix(parent, HashString(label), idx...),
// computed without building the argument list, and the initial generator
// state New gives that seed.
func derive(parent uint64, label string, idx []uint64) (seed, state uint64) {
	h := absorb(absorb(mixInit, parent), HashString(label))
	for _, v := range idx {
		h = absorb(h, v)
	}
	seed = squeeze(h)
	return seed, squeeze(absorb(mixInit, seed))
}

// int63 is math/rand's Int63.
func (s *Source) int63() int64 { return s.src.Int63() }

// int31 is math/rand's Int31.
func (s *Source) int31() int32 { return int32(s.int63() >> 32) }

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	for {
		f := float64(s.int63()) / (1 << 63)
		//mmv2v:exact math/rand's own retry: a draw that rounds up to exactly 1.0 is resampled, which keeps [0, 1) and the math/rand stream
		if f != 1 {
			return f
		}
	}
}

// Uint64 returns a uniform 64-bit value.
func (s *Source) Uint64() uint64 { return s.src.Uint64() }

// Intn returns a uniform value in [0, n). It panics if n <= 0, matching
// math/rand semantics.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(s.int31n(int32(n)))
	}
	return int(s.int63n(int64(n)))
}

// int31n is math/rand's Int31n: a mask for a power of two, otherwise
// rejection of the top partial block and a modulo.
func (s *Source) int31n(n int32) int32 {
	if n&(n-1) == 0 {
		return s.int31() & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := s.int31()
	for v > max {
		v = s.int31()
	}
	return v % n
}

// int63n is math/rand's Int63n, the 63-bit form of int31n.
func (s *Source) int63n(n int64) int64 {
	if n&(n-1) == 0 {
		return s.int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := s.int63()
	for v > max {
		v = s.int63()
	}
	return v % n
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool { return s.Float64() < p }

// UniformRange returns a uniform value in [lo, hi).
func (s *Source) UniformRange(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Perm returns a random permutation of [0, n). It runs math/rand over a
// copy of the stream's state, then adopts the advanced state.
func (s *Source) Perm(n int) []int {
	src := s.src
	p := rand.New(&src).Perm(n)
	s.src = src
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap, like Perm
// through math/rand.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	src := s.src
	rand.New(&src).Shuffle(n, swap)
	s.src = src
}
