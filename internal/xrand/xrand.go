// Package xrand provides small, fast, deterministic random number
// generators and distribution samplers used by the workload generators
// and the randomized schedulers.
//
// The package intentionally avoids math/rand's global state: every
// consumer owns an explicit *Rand seeded from a fixed value, so a whole
// benchmark run is reproducible bit-for-bit. The core generator is
// xoshiro256**, seeded via splitmix64, following the reference
// constructions of Blackman and Vigna.
package xrand

import "math"

// splitmix64 advances the seed and returns the next splitmix64 output.
// It is used only to expand a user seed into xoshiro state.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a deterministic xoshiro256** generator. It is NOT safe for
// concurrent use; give each goroutine its own Rand (see Split).
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded deterministically from seed.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// Seed resets r to the start of New(seed)'s stream, so a generator can
// live on the stack or inside a struct.
func (r *Rand) Seed(seed uint64) {
	for i := range r.s {
		r.s[i] = splitmix64(&seed)
	}
	// xoshiro must not start at the all-zero state; splitmix64 of any
	// seed cannot produce four zero words, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// Split derives an independent generator from r. The derived stream is
// decorrelated from r's future output because it reseeds through
// splitmix64.
func (r *Rand) Split() *Rand {
	return New(r.Uint64())
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63 returns a non-negative 63-bit integer.
func (r *Rand) Int63() int64 {
	return int64(r.Uint64() >> 1)
}

// Mix returns a deterministic 64-bit hash of (seed, n): one splitmix64
// step over their golden-ratio combination. It is stateless, so
// concurrent callers need no lock — the schedule-perturbation driver
// uses it for per-decision coin flips, where a shared *Rand would
// serialize the very interleavings being explored.
func Mix(seed, n uint64) uint64 {
	s := seed + n*0x9e3779b97f4a7c15
	return splitmix64(&s)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Exp returns an exponentially distributed value with the given mean.
// Exponential inter-arrival gaps produce a Poisson arrival process,
// which is how the open-loop load generators model client requests.
func (r *Rand) Exp(mean float64) float64 {
	u := r.Float64()
	// Guard u == 0, which would yield +Inf.
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Poisson returns a Poisson-distributed count with the given mean,
// using Knuth's product method for small means and a normal
// approximation for large ones.
func (r *Rand) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean < 30 {
		l := math.Exp(-mean)
		k := 0
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	// Normal approximation with continuity correction.
	n := r.Norm()*math.Sqrt(mean) + mean + 0.5
	if n < 0 {
		return 0
	}
	return int(n)
}

// Norm returns a standard normal variate (Box-Muller, one branch).
func (r *Rand) Norm() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Zipf samples Zipfian-distributed ranks in [0, n) with exponent s > 1,
// using the rejection-inversion method of Hörmann and Derflinger. Key
// popularity in cache workloads (e.g. Memcached traces) is classically
// Zipfian, so the load generator uses this to pick keys.
type Zipf struct {
	r                *Rand
	n                float64
	s                float64
	oneMinusS        float64
	hIntegralX1      float64
	hIntegralNumElem float64
	sDivOneMinusS    float64
}

// NewZipf returns a Zipf sampler over ranks [0, n). s must be > 1.
func NewZipf(r *Rand, s float64, n uint64) *Zipf {
	if s <= 1 {
		panic("xrand: Zipf exponent must be > 1")
	}
	if n == 0 {
		panic("xrand: Zipf range must be non-empty")
	}
	z := &Zipf{r: r, n: float64(n), s: s, oneMinusS: 1 - s}
	z.hIntegralX1 = z.hIntegral(1.5) - 1
	z.hIntegralNumElem = z.hIntegral(z.n + 0.5)
	z.sDivOneMinusS = s / z.oneMinusS
	return z
}

func (z *Zipf) hIntegral(x float64) float64 {
	logX := math.Log(x)
	return helper2(z.oneMinusS*logX) * logX
}

func (z *Zipf) h(x float64) float64 {
	return math.Exp(-z.s * math.Log(x))
}

func (z *Zipf) hIntegralInverse(x float64) float64 {
	t := x * z.oneMinusS
	if t < -1 {
		t = -1
	}
	return math.Exp(helper1(t) * x)
}

// helper1 computes log1p(x)/x with a series fallback near zero.
func helper1(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Log1p(x) / x
	}
	return 1 - x*(0.5-x*(1.0/3.0-x*0.25))
}

// helper2 computes expm1(x)/x with a series fallback near zero.
func helper2(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Expm1(x) / x
	}
	return 1 + x*0.5*(1+x*(1.0/3.0)*(1+x*0.25))
}

// Uint64 returns the next Zipf-distributed rank in [0, n).
func (z *Zipf) Uint64() uint64 {
	for {
		u := z.hIntegralNumElem + z.r.Float64()*(z.hIntegralX1-z.hIntegralNumElem)
		x := z.hIntegralInverse(u)
		k := math.Floor(x + 0.5)
		if k < 1 {
			k = 1
		} else if k > z.n {
			k = z.n
		}
		if k-x <= 0.5 || u >= z.hIntegral(k+0.5)-z.h(k) {
			return uint64(k) - 1
		}
	}
}

// Shuffle permutes the n elements addressed by swap using Fisher-Yates.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}
