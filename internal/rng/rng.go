// Package rng provides small, fast, deterministic pseudo-random number
// generators used throughout the simulator.
//
// Everything in ctrpred that needs randomness — per-page root sequence
// numbers, workload data layouts, tenant arrival schedules — draws from
// this package so that a run is exactly reproducible from its seed. The
// generators are NOT cryptographically secure; the paper's hardware random
// number generator is a true RNG, but for simulation purposes determinism
// is worth far more than entropy (and the security argument in the paper
// does not rest on root secrecy).
package rng

// SplitMix64 is the splitmix64 generator of Steele, Lea and Flood. It is
// primarily used to seed Xoshiro and to derive independent sub-streams.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next value in the sequence.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Xoshiro256 is the xoshiro256** generator of Blackman and Vigna.
// The zero value is invalid; use New.
type Xoshiro256 struct {
	s [4]uint64
}

// New returns a Xoshiro256 seeded from seed via SplitMix64, as the
// reference implementation recommends.
func New(seed uint64) *Xoshiro256 {
	sm := NewSplitMix64(seed)
	var x Xoshiro256
	for i := range x.s {
		x.s[i] = sm.Next()
	}
	// Guard against the (astronomically unlikely) all-zero state.
	if x.s[0]|x.s[1]|x.s[2]|x.s[3] == 0 {
		x.s[0] = 0x9e3779b97f4a7c15
	}
	return &x
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns a uniformly distributed 64-bit value.
func (x *Xoshiro256) Uint64() uint64 {
	result := rotl(x.s[1]*5, 7) * 9
	t := x.s[1] << 17
	x.s[2] ^= x.s[0]
	x.s[3] ^= x.s[1]
	x.s[1] ^= x.s[2]
	x.s[0] ^= x.s[3]
	x.s[2] ^= t
	x.s[3] = rotl(x.s[3], 45)
	return result
}

// Uint32 returns a uniformly distributed 32-bit value.
func (x *Xoshiro256) Uint32() uint32 { return uint32(x.Uint64() >> 32) }

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (x *Xoshiro256) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(x.Uint64() % uint64(n))
}

// Uint64n returns a uniformly distributed uint64 in [0, n). It panics if
// n == 0.
func (x *Xoshiro256) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	return x.Uint64() % n
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (x *Xoshiro256) Float64() float64 {
	return float64(x.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (x *Xoshiro256) Bool(p float64) bool { return x.Float64() < p }
