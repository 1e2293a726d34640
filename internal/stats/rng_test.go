package stats

import (
	"math"
	"math/rand"
	"testing"
)

// edgeSeeds are the seeds where rngSource.Seed's normalisation has a
// boundary: zero (replaced by 89482311), ±1, the replacement itself,
// multiples of the Lehmer modulus 2^31−1 and their neighbours, and the
// int64 extremes.
var edgeSeeds = []int64{
	0, 1, -1, 89482311, -89482311,
	int32max, -int32max, int32max - 1, -(int32max - 1), int32max + 1, -(int32max + 1),
	2 * int32max, -2 * int32max, 2*int32max + 1,
	math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1,
}

// refRNG returns an RNG whose samplers run on math/rand's own source,
// the oracle every lazySource stream must equal.
func refRNG(seed int64) *RNG {
	return &RNG{src: *rand.New(rand.NewSource(seed))}
}

// mixedDraws draws n values from r through every sampler, in a fixed
// seed-independent order, so each call consumes one or more source
// values. Error returns are folded into the sequence.
func mixedDraws(r *RNG, n int) []float64 {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		var v float64
		switch i % 6 {
		case 0:
			v = r.Normal(1, 2)
		case 1:
			v = r.Float64()
		case 2:
			e, err := r.Exponential(0.5)
			if err != nil {
				panic(err)
			}
			v = e
		case 3:
			v = float64(r.Intn(1 + i%1000))
		case 4:
			v = r.Jitter(10, 0.05)
		case 5:
			p, err := r.Poisson(float64(i%40) / 2)
			if err != nil {
				panic(err)
			}
			v = float64(p)
		}
		out = append(out, v)
	}
	return out
}

// diffSeeds returns the edge seeds plus 300 pseudo-random seeds of both
// signs spread over the whole int64 range.
func diffSeeds() []int64 {
	seeds := append([]int64(nil), edgeSeeds...)
	g := rand.New(rand.NewSource(20240712))
	for i := 0; i < 300; i++ {
		s := int64(g.Uint64())
		if i%3 == 0 {
			s %= 1 << 32 // small magnitudes take the other normalisation branches
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// TestNewRNGMatchesMathRand is the differential proof that lazy seeding
// changes no stream: on every seed, 1300 mixed draws — more than twice
// the 607-word state, so every word is read fresh and again after the
// wrap, and every cooked-table entry enters some output — equal those
// of rand.New(rand.NewSource(seed)), and so does the raw Uint64 stream.
func TestNewRNGMatchesMathRand(t *testing.T) {
	const draws = 1300
	for _, seed := range diffSeeds() {
		got, want := mixedDraws(NewRNG(seed), draws), mixedDraws(refRNG(seed), draws)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("seed %d: mixed draw %d = %v, math/rand gives %v", seed, i, got[i], want[i])
			}
		}
		var lazy lazySource
		lazy.Seed(seed)
		ref := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < draws; i++ {
			if g, w := lazy.Uint64(), ref.Uint64(); g != w {
				t.Fatalf("seed %d: Uint64 %d = %#x, math/rand gives %#x", seed, i, g, w)
			}
		}
	}
}

// TestNewRNGReseedMidStream re-seeds a source inside the lazy window,
// right at its edge, and after the full state is built: each restart
// must follow math/rand's restarted stream.
func TestNewRNGReseedMidStream(t *testing.T) {
	for _, after := range []int{0, 1, lazyLen - 1, lazyLen, lazyLen + 1, 700} {
		got, want := NewRNG(7), refRNG(7)
		for i := 0; i < after; i++ {
			got.Float64()
			want.Float64()
		}
		for _, seed := range []int64{0, 7, -99, math.MinInt64} {
			got.src.Seed(seed)
			want.src.Seed(seed)
			for i := 0; i < 700; i++ {
				if g, w := got.src.Uint64(), want.src.Uint64(); g != w {
					t.Fatalf("reseed to %d after %d draws: draw %d = %#x, math/rand gives %#x", seed, after, i, g, w)
				}
			}
		}
	}
}

// TestNewRNGConstructionIsCheap pins the point of lazy seeding: building
// an RNG is one allocation, and draws inside the lazy window add none.
func TestNewRNGConstructionIsCheap(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { _ = NewRNG(42) }); n > 1 {
		t.Fatalf("NewRNG allocates %v times, want at most 1", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		r := NewRNG(42)
		for i := 0; i < lazyLen; i++ {
			r.Float64()
		}
	}); n > 1 {
		t.Fatalf("NewRNG plus %d draws allocates %v times, want at most 1", lazyLen, n)
	}
}

// FuzzNewRNG extends the differential test to arbitrary seeds and
// stream lengths, crossing the lazy/full boundary at every offset.
func FuzzNewRNG(f *testing.F) {
	for _, seed := range edgeSeeds {
		f.Add(seed, uint16(1300))
	}
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		n := int(draws) % 4096
		got, want := mixedDraws(NewRNG(seed), n), mixedDraws(refRNG(seed), n)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("seed %d: mixed draw %d = %v, math/rand gives %v", seed, i, got[i], want[i])
			}
		}
	})
}

var rngSink float64

// BenchmarkNewRNG times the RNG per layer: construct is seeding alone;
// grid-cell is one testbed cell at Trials=30 (60 normals); full-state
// runs far past the lazy window, into the standard recurrence.
func BenchmarkNewRNG(b *testing.B) {
	for _, bc := range []struct {
		name    string
		normals int
	}{
		{"construct", 0},
		{"grid-cell", 60},
		{"full-state", 1300},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := NewRNG(int64(i))
				s := 0.0
				for j := 0; j < bc.normals; j++ {
					s += r.Normal(0, 1)
				}
				rngSink += s
			}
		})
	}
}
