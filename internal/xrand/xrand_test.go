package xrand

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMixDeterministic(t *testing.T) {
	a := Mix(1, 2, 3)
	b := Mix(1, 2, 3)
	if a != b {
		t.Errorf("Mix not deterministic: %x != %x", a, b)
	}
	if Mix(1, 2, 3) == Mix(3, 2, 1) {
		t.Error("Mix should be order-sensitive")
	}
	if Mix(0) == Mix(0, 0) {
		t.Error("Mix should be length-sensitive")
	}
}

func TestMixAvalanche(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	base := Mix(0xdeadbeef)
	totalFlips := 0
	const trials = 64
	for bit := 0; bit < trials; bit++ {
		v := Mix(0xdeadbeef ^ (1 << uint(bit)))
		totalFlips += popcount(base ^ v)
	}
	avg := float64(totalFlips) / trials
	if avg < 24 || avg > 40 {
		t.Errorf("avalanche average = %.1f bits, want ≈32", avg)
	}
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

func TestHashString(t *testing.T) {
	if HashString("") != 14695981039346656037 {
		t.Error("empty string should hash to FNV offset basis")
	}
	if HashString("role") == HashString("sector") {
		t.Error("distinct labels should hash differently")
	}
	if HashString("ab") == HashString("ba") {
		t.Error("hash should be order-sensitive")
	}
}

func TestSourceDeterminism(t *testing.T) {
	s1 := New(42)
	s2 := New(42)
	for i := 0; i < 100; i++ {
		if s1.Uint64() != s2.Uint64() {
			t.Fatal("same-seed sources diverged")
		}
	}
}

func TestChildIndependentOfParentState(t *testing.T) {
	s1 := New(7)
	s2 := New(7)
	// Consuming parent state must not change child derivation.
	for i := 0; i < 10; i++ {
		s1.Uint64()
	}
	c1 := s1.Child("traffic", 3)
	c2 := s2.Child("traffic", 3)
	for i := 0; i < 50; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatal("child streams depend on parent consumption")
		}
	}
}

func TestChildDistinctByLabelAndIndex(t *testing.T) {
	s := New(7)
	a := s.Child("role", 1).Uint64()
	b := s.Child("role", 2).Uint64()
	c := s.Child("sector", 1).Uint64()
	if a == b || a == c || b == c {
		t.Errorf("child streams collide: %x %x %x", a, b, c)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(1)
	for i := 0; i < 1000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(99)
	const n = 20000
	for _, p := range []float64{0.1, 0.5, 0.9} {
		hits := 0
		for i := 0; i < n; i++ {
			if s.Bool(p) {
				hits++
			}
		}
		got := float64(hits) / n
		if math.Abs(got-p) > 0.02 {
			t.Errorf("Bool(%v) frequency = %v", p, got)
		}
	}
}

func TestUniformRange(t *testing.T) {
	s := New(5)
	sum := 0.0
	const n = 10000
	for i := 0; i < n; i++ {
		v := s.UniformRange(40, 60)
		if v < 40 || v >= 60 {
			t.Fatalf("UniformRange out of bounds: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-50) > 0.5 {
		t.Errorf("UniformRange mean = %v, want ≈50", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		size := int(n)%20 + 1
		p := New(seed).Perm(size)
		seen := make([]bool, size)
		for _, v := range p {
			if v < 0 || v >= size || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMixUniformity(t *testing.T) {
	// Bucket Mix outputs of sequential inputs; expect near-uniform spread.
	const buckets = 16
	const n = 16000
	var counts [buckets]int
	for i := 0; i < n; i++ {
		counts[Mix(uint64(i))%buckets]++
	}
	want := n / buckets
	for b, c := range counts {
		if c < want*8/10 || c > want*12/10 {
			t.Errorf("bucket %d count %d, want ≈%d", b, c, want)
		}
	}
}

// refSplitMix is a textbook SplitMix64 Source64, written independently of
// the package's generator, as the reference math/rand runs over.
type refSplitMix struct{ x uint64 }

func (r *refSplitMix) Uint64() uint64 {
	r.x += 0x9e3779b97f4a7c15
	z := r.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *refSplitMix) Int63() int64    { return int64(r.Uint64() >> 1) }
func (r *refSplitMix) Seed(seed int64) { r.x = uint64(seed) }

// intnBounds covers powers of two (the mask path), values just above a
// power of two (rejection about half the time), small and protocol-sized
// bounds, and bounds above 2³¹−1 (the 63-bit path).
var intnBounds = []int{
	1, 2, 3, 7, 24, 1 << 10, (1 << 10) + 1, 1 << 30, (1 << 30) + 1,
	1<<31 - 1, 1 << 31, (1 << 31) + 1, 1 << 40, (1 << 40) + 1, (1 << 62) + 1, math.MaxInt64,
}

// TestDrawsMatchMathRand is the differential test behind the package's
// contract: for 1000 seeds, several labels and index lists of length 0–9, a
// child's Seed is Mix(parent, HashString(label), idx...), and every draw
// equals rand.New over a reference SplitMix64 seeded as New seeds it, with
// Float64, Intn, Uint64, Bool, UniformRange, Perm and Shuffle interleaved.
func TestDrawsMatchMathRand(t *testing.T) {
	labels := []string{"", "x", "rop.slot", "mmv2v.role", "ad.abftslot"}
	for k := 0; k < 1000; k++ {
		seed := Mix(uint64(k))
		if k%2 == 1 {
			seed = uint64(k) // small seeds too
		}
		parent := New(seed)
		// The root stream itself.
		compareDraws(t, fmt.Sprintf("New(%#x)", seed), parent, rand.New(&refSplitMix{x: Mix(seed)}), k)
		label := labels[k%len(labels)]
		idx := make([]uint64, k%10)
		for i := range idx {
			idx[i] = Mix(uint64(k), uint64(i)) >> uint(k%64)
		}
		child := parent.Child(label, idx...)
		want := Mix(append([]uint64{seed, HashString(label)}, idx...)...)
		if child.Seed() != want {
			t.Fatalf("seed %#x: Child(%q, %v).Seed() = %#x, want Mix(...) = %#x", seed, label, idx, child.Seed(), want)
		}
		compareDraws(t, fmt.Sprintf("New(%#x).Child(%q, %v)", seed, label, idx), child, rand.New(&refSplitMix{x: Mix(want)}), k)
	}
}

// compareDraws makes 40 interleaved draws from s and ref, the kind of each
// chosen by its position and k, and fails on the first difference.
func compareDraws(t *testing.T, name string, s *Source, ref *rand.Rand, k int) {
	t.Helper()
	for d := 0; d < 40; d++ {
		var got, want string
		switch op := (k + d*3) % 7; op {
		case 0:
			got = fmt.Sprint(math.Float64bits(s.Float64()))
			want = fmt.Sprint(math.Float64bits(ref.Float64()))
		case 1:
			n := intnBounds[(k+d)%len(intnBounds)]
			got, want = fmt.Sprint(n, s.Intn(n)), fmt.Sprint(n, ref.Intn(n))
		case 2:
			got, want = fmt.Sprint(s.Uint64()), fmt.Sprint(ref.Uint64())
		case 3:
			p := float64(d%5) / 4
			got, want = fmt.Sprint(s.Bool(p)), fmt.Sprint(ref.Float64() < p)
		case 4:
			lo, hi := -float64(d), float64(k)+0.5
			got = fmt.Sprint(math.Float64bits(s.UniformRange(lo, hi)))
			want = fmt.Sprint(math.Float64bits(lo + (hi-lo)*ref.Float64()))
		case 5:
			n := d % 13
			got, want = fmt.Sprint(s.Perm(n)), fmt.Sprint(ref.Perm(n))
		case 6:
			a, b := make([]int, d%11), make([]int, d%11)
			for i := range a {
				a[i], b[i] = i, i
			}
			s.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
			ref.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
			got, want = fmt.Sprint(a), fmt.Sprint(b)
		}
		if got != want {
			t.Fatalf("%s: draw %d: got %s, math/rand %s", name, d, got, want)
		}
	}
}

// TestIntnPanicsOnNonPositive keeps math/rand's contract for a bad bound.
func TestIntnPanicsOnNonPositive(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			New(1).Intn(n)
		}()
	}
}

// TestChildAllocFree pins the per-slot derivation the protocols make for
// every vehicle: a child that does not outlive its caller, and its draws,
// allocate nothing.
func TestChildAllocFree(t *testing.T) {
	src := New(1).Child("protocol")
	var i, sink uint64
	intn := testing.AllocsPerRun(1000, func() {
		sink += uint64(src.Child("x", i, 7, 3).Intn(24))
		i++
	})
	coin := testing.AllocsPerRun(1000, func() {
		if src.Child("x", i, 7, 3).Bool(0.5) {
			sink++
		}
		i++
	})
	if intn != 0 || coin != 0 {
		t.Errorf("Child(...).Intn(24) allocates %v, Child(...).Bool(0.5) %v; want 0 and 0", intn, coin)
	}
	_ = sink
}

// BenchmarkChild measures one per-slot stream derivation and draw.
func BenchmarkChild(b *testing.B) {
	src := New(1).Child("protocol")
	b.ReportAllocs()
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += src.Child("rop.slot", uint64(i), 7, 3).Intn(24)
	}
	_ = sink
}
