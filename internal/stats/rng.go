package stats

import (
	"fmt"
	"math"
	"math/rand"
)

// RNG wraps a seeded source with the distribution samplers needed by the
// framework: Gaussian measurement noise for the synthetic testbed,
// exponential inter-arrival/service times for the M/M/1 input buffer, and
// Poisson counts for sensor update batching. All experiments seed RNGs
// explicitly so every figure is reproducible run-to-run.
//
// The samplers are math/rand's, driven by lazySource, which yields
// exactly the stream of rand.NewSource(seed) without seeding the 607-word
// state up front. An RNG must not be copied: src points into it.
type RNG struct {
	src  rand.Rand
	lazy lazySource
}

// NewRNG returns a deterministic RNG seeded with seed. Its stream is
// identical, draw for draw, to rand.New(rand.NewSource(seed)).
func NewRNG(seed int64) *RNG {
	r := &RNG{}
	r.lazy.Seed(seed)
	r.src = *rand.New(&r.lazy)
	return r
}

const (
	rngLen   = 607             // words of math/rand's lagged-Fibonacci state
	rngTap   = 273             // lag between the tap and feed indices
	rngFeed  = rngLen - rngTap // feed index of a freshly seeded source
	rngMask  = 1<<63 - 1       // Int63 mask
	int32max = 1<<31 - 1       // modulus of math/rand's Lehmer seeding generator
	lehmerA  = 48271           // multiplier of that generator
	lazyLen  = rngTap          // longest prefix of draws that read only fresh words
)

// rngPow[i] is lehmerA^(21+3i) mod int32max: math/rand's seeding loop
// steps its Lehmer generator 20 times, then 3 times per state word, so
// word i starts at Lehmer state x_{21+3i} = rngPow[i]·x_0.
var rngPow = func() (p [rngLen]uint32) {
	x := uint32(1)
	for i := 0; i < 21; i++ {
		x = mulmod(x, lehmerA)
	}
	a3 := mulmod(mulmod(lehmerA, lehmerA), lehmerA)
	for i := range p {
		p[i] = x
		x = mulmod(x, a3)
	}
	return p
}()

// mulmod returns a·b mod 2^31−1 for a, b < 2^31, folding the Mersenne
// modulus instead of dividing. For a nonzero state it equals math/rand's
// seedrand step (Schrage's method) exactly.
func mulmod(a, b uint32) uint32 {
	p := uint64(a) * uint64(b)
	p = p&int32max + p>>31
	p = p&int32max + p>>31
	if p >= int32max {
		p -= int32max
	}
	return uint32(p)
}

// lazySource is a rand.Source64 whose output equals math/rand's
// rngSource bit for bit, but which builds the 607-word state only when
// a stream grows long enough to need it.
//
// Seeding sets word i of rngSource's state to a function of the Lehmer
// state x_{21+3i} alone, so any single word costs three mulmods via
// rngPow. Draw k (from 1) adds words feed = 334−k and tap = 607−k and
// stores the sum at feed. For k ≤ 273 both words are ones no earlier
// draw has read or written, so each of the first lazyLen draws is a sum
// of two fresh words, and its stored sum is a pure function of the
// seed too. The next draw builds the full state, recomputes those sums
// into the feed slots they replaced, and hands over to the standard
// tap/feed recurrence.
type lazySource struct {
	x0   uint32         // normalised seed: the Lehmer state x_0
	n    int            // lazy draws served so far (while vec == nil)
	tap  int            // rngSource's tap index, once vec is built
	feed int            // rngSource's feed index, once vec is built
	vec  *[rngLen]int64 // full state; nil through the first lazyLen draws
}

// Seed normalises seed exactly as rngSource.Seed does and discards any
// built state.
func (s *lazySource) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0, s.n, s.vec = uint32(seed), 0, nil
}

// word returns state word i of a freshly seeded rngSource: the Lehmer
// triple starting at x_{21+3i}, packed and XORed with rngCooked[i].
func (s *lazySource) word(i int) int64 {
	a := mulmod(rngPow[i], s.x0)
	b := mulmod(a, lehmerA)
	return int64(a)<<40 ^ int64(b)<<20 ^ int64(mulmod(b, lehmerA)) ^ rngCooked[i]
}

// build materialises the state rngSource holds after the lazy draws
// served so far.
func (s *lazySource) build() {
	vec := new([rngLen]int64)
	for i := range vec {
		vec[i] = s.word(i)
	}
	// Lazy draw k wrote to feed slot 333−k and read only fresh words, so
	// the slots can be refilled in any order.
	for k := 0; k < s.n; k++ {
		vec[rngFeed-1-k] += vec[rngLen-1-k]
	}
	s.vec, s.tap, s.feed = vec, rngLen-s.n, rngFeed-s.n
}

// Uint64 returns the next value of rngSource's stream.
func (s *lazySource) Uint64() uint64 {
	if s.vec == nil {
		if k := s.n; k < lazyLen {
			s.n++
			return uint64(s.word(rngFeed-1-k) + s.word(rngLen-1-k))
		}
		s.build()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next value of rngSource's stream as a non-negative
// 63-bit integer.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Float64 returns a uniform variate in [0,1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// Intn returns a uniform integer in [0,n).
func (r *RNG) Intn(n int) int { return r.src.Intn(n) }

// Normal returns a Gaussian variate with the given mean and standard
// deviation.
func (r *RNG) Normal(mean, sd float64) float64 {
	return mean + sd*r.src.NormFloat64()
}

// Exponential returns an exponential variate with the given rate λ (mean
// 1/λ). It returns an error for non-positive rates.
func (r *RNG) Exponential(rate float64) (float64, error) {
	if rate <= 0 {
		return 0, fmt.Errorf("stats: exponential rate must be positive, have %v", rate)
	}
	return r.src.ExpFloat64() / rate, nil
}

// Poisson returns a Poisson variate with the given mean using Knuth's
// method for small means and a normal approximation above 30 (adequate for
// the packet-count scales in this framework).
func (r *RNG) Poisson(mean float64) (int, error) {
	if mean < 0 {
		return 0, fmt.Errorf("stats: poisson mean must be non-negative, have %v", mean)
	}
	if mean == 0 {
		return 0, nil
	}
	if mean > 30 {
		v := r.Normal(mean, math.Sqrt(mean))
		if v < 0 {
			v = 0
		}
		return int(v + 0.5), nil
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.src.Float64()
		if p <= l {
			return k, nil
		}
		k++
	}
}

// Jitter returns v perturbed by multiplicative Gaussian noise with relative
// standard deviation relSD, floored at zero. It models measurement noise of
// a physical monitor (the paper's Monsoon sampler) around a true value.
func (r *RNG) Jitter(v, relSD float64) float64 {
	out := v * (1 + relSD*r.src.NormFloat64())
	if out < 0 {
		return 0
	}
	return out
}
