// Package tenancy models a served deployment of the secure-memory
// architecture: N tenants' workloads — each its own machine, key domain
// and predictor state — interleaved on one core by seeded arrival
// processes, with per-tenant SLO metrics (exact fetch-latency
// percentiles, IPC degradation vs a solo run, interference counters)
// reported through the stats tree.
//
// Everything is deterministic: the arrival processes draw from the same
// splitmix-seeded generators the rest of the simulator uses, the
// schedule is a pure function of its config, and the interleaved run is
// sequential — so a tenancy scenario is byte-identical across runs and
// across experiment worker counts.
package tenancy

import (
	"fmt"
	"math"

	"ctrpred/internal/rng"
)

// ArrivalKind selects the job-arrival process shaping each tenant's
// offered load.
type ArrivalKind int

const (
	// Poisson arrivals: independent exponential inter-arrival gaps, the
	// memoryless open-system baseline.
	Poisson ArrivalKind = iota
	// Bursty arrivals: an on-off process — bursts of back-to-back jobs
	// separated by long idle gaps — the heavy-tailed shape that stresses
	// tail latency hardest at equal mean load.
	Bursty
)

func (k ArrivalKind) String() string {
	if k == Bursty {
		return "bursty"
	}
	return "poisson"
}

// ParseArrival parses an arrival-process name ("poisson" or "bursty").
func ParseArrival(s string) (ArrivalKind, error) {
	switch s {
	case "", "poisson":
		return Poisson, nil
	case "bursty":
		return Bursty, nil
	}
	return 0, fmt.Errorf("tenancy: unknown arrival process %q (want poisson or bursty)", s)
}

// process generates one tenant's job stream: next returns the gap in
// instructions of virtual time since the previous arrival, and the
// arriving job's service demand in instructions. Draws are consumed in
// schedule-build order only, so a process is deterministic per seed.
type process interface {
	next() (gap, demand uint64)
}

// poissonProc draws exponential gaps and demands — a Poisson arrival
// process with exponentially distributed service requirements (M/M/1
// per tenant, before they contend for the core).
type poissonProc struct {
	rnd              *rng.Xoshiro256
	meanGap, meanDem float64
}

func (p *poissonProc) next() (uint64, uint64) {
	return expDraw(p.rnd, p.meanGap), expDraw(p.rnd, p.meanDem)
}

// burstyProc is an on-off process: during a burst, jobs arrive nearly
// back-to-back; between bursts the tenant idles for a long exponential
// gap. Mean offered load matches the Poisson process with the same
// parameters — only the variance moves.
type burstyProc struct {
	rnd              *rng.Xoshiro256
	meanGap, meanDem float64
	burstLeft        int
}

func (p *burstyProc) next() (uint64, uint64) {
	if p.burstLeft > 0 {
		p.burstLeft--
		// Within a burst, jobs follow each other at an eighth of the
		// average spacing.
		return expDraw(p.rnd, p.meanGap/8), expDraw(p.rnd, p.meanDem)
	}
	// Draw the next burst (mean 4 jobs, at least 1) and the off period
	// that precedes it, sized so the long-run arrival rate matches the
	// Poisson process: 4 jobs per burst at meanGap/8 spacing leaves
	// 7/2·meanGap of the 4·meanGap budget to the idle gap.
	burst := 1 + int(expDraw(p.rnd, 3))
	p.burstLeft = burst - 1
	return expDraw(p.rnd, 3.5*p.meanGap), expDraw(p.rnd, p.meanDem)
}

// expDraw returns an exponential variate with the given mean, floored at
// 1: ⌈mean · (−ln U)⌉ for uniform U in (0,1]. Inverse-CDF sampling costs
// one uniform draw, so schedule construction is O(jobs) regardless of
// the mean; a Bernoulli-trial loop would cost O(mean) draws per variate.
func expDraw(r *rng.Xoshiro256, mean float64) uint64 {
	u := r.Float64()
	if u == 0 {
		u = 1.0 / (1 << 53) // Float64's granularity; -ln stays finite
	}
	v := mean * negLn(u)
	if v < 1 {
		return 1
	}
	return uint64(v) + 1
}

// ln2 is ln 2 to float64 precision.
const ln2 = 0.6931471805599453

// negLn returns −ln u for u in (0, 1], using fixed-iteration float64
// arithmetic only — bit-identical on every platform — rather than
// math.Log, whose implementation is assembly on some architectures.
func negLn(u float64) float64 {
	if u >= 1 {
		return 0
	}
	// u = m · 2^e with m in [1, 2): peel the exponent from the bits.
	bits := math.Float64bits(u)
	e := int(bits>>52&0x7ff) - 1023
	m := math.Float64frombits(bits&^(0x7ff<<52) | 1023<<52)
	// ln m = 2·atanh((m−1)/(m+1)); z ≤ 1/3 on [1,2), so 8 odd terms
	// reach float64 precision.
	z := (m - 1) / (m + 1)
	z2 := z * z
	term, sum := z, z
	for k := 3; k <= 15; k += 2 {
		term *= z2
		sum += term / float64(k)
	}
	return -(float64(e)*ln2 + 2*sum)
}
