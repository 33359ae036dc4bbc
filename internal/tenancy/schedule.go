package tenancy

import "ctrpred/internal/rng"

// Slice is one timeslice of the interleaved run: the tenant that holds
// the core and how many instructions it commits before yielding.
type Slice struct {
	Tenant int
	Length uint64
}

// ScheduleConfig parameterizes schedule construction.
type ScheduleConfig struct {
	// Budgets holds each tenant's total instruction budget; the schedule
	// allots exactly this much core time to tenant i (its program may
	// still halt earlier at run time).
	Budgets []uint64
	// Quantum caps a single timeslice. 0 derives max(maxBudget/16, 1000):
	// enough slices that every tenant is preempted repeatedly inside the
	// short experiment windows, without drowning the run in switches.
	Quantum uint64
	// Kind selects the arrival process (Poisson or Bursty).
	Kind ArrivalKind
	// Seed drives every arrival draw. Tenant i's process is seeded from
	// (Seed, i), so adding a tenant never perturbs the others' streams.
	Seed uint64
}

// BuildSchedule runs the arrival processes through a FIFO run queue and
// returns the resulting timeslice sequence: jobs arrive on each tenant's
// seeded process, queue for the single core, and execute in
// quantum-bounded slices until every tenant has consumed its budget.
// The schedule is a pure function of cfg — identical across runs and
// across any worker count — and adjacent slices of the same tenant are
// merged, so every boundary in the result is a real context switch.
func BuildSchedule(cfg ScheduleConfig) []Slice {
	n := len(cfg.Budgets)
	if n == 0 {
		return nil
	}
	quantum := cfg.Quantum
	if quantum == 0 {
		var maxBudget uint64
		for _, b := range cfg.Budgets {
			if b > maxBudget {
				maxBudget = b
			}
		}
		quantum = maxBudget / 16
		if quantum < 1000 {
			quantum = 1000
		}
	}
	// A job demands two quanta on average, and jobs arrive as far apart
	// as they take to serve: each tenant alone would keep roughly one
	// core busy, so N tenants genuinely contend.
	meanDem := 2 * float64(quantum)
	meanGap := meanDem

	procs := make([]process, n)
	nextArrival := make([]uint64, n) // absolute virtual time of the next job
	nextDemand := make([]uint64, n)
	for t := 0; t < n; t++ {
		// splitmix the (seed, tenant) pair so per-tenant streams are
		// independent and stable under tenant-count changes.
		r := rng.New(rng.NewSplitMix64(cfg.Seed ^ 0x7e3a91*uint64(t+1)).Next())
		switch cfg.Kind {
		case Bursty:
			procs[t] = &burstyProc{rnd: r, meanGap: meanGap, meanDem: meanDem}
		default:
			procs[t] = &poissonProc{rnd: r, meanGap: meanGap, meanDem: meanDem}
		}
		gap, dem := procs[t].next()
		nextArrival[t], nextDemand[t] = gap, dem
	}

	scheduled := make([]uint64, n) // instructions already allotted
	pending := make([]uint64, n)   // arrived-but-unserved demand
	queued := make([]bool, n)
	var queue []int // FIFO of tenants with pending demand
	done := 0

	var out []Slice
	var clock uint64
	// admit moves every due arrival into the run queue, in tenant order.
	admit := func() {
		for t := 0; t < n; t++ {
			if scheduled[t] >= cfg.Budgets[t] {
				continue
			}
			for nextArrival[t] <= clock {
				pending[t] += nextDemand[t]
				gap, dem := procs[t].next()
				nextArrival[t] += gap
				nextDemand[t] = dem
			}
			if pending[t] > 0 && !queued[t] {
				queued[t] = true
				queue = append(queue, t)
			}
		}
	}
	for done < n {
		admit()
		if len(queue) == 0 {
			// Idle: jump the clock to the earliest outstanding arrival.
			var soonest uint64
			first := true
			for t := 0; t < n; t++ {
				if scheduled[t] >= cfg.Budgets[t] {
					continue
				}
				if first || nextArrival[t] < soonest {
					soonest, first = nextArrival[t], false
				}
			}
			clock = soonest
			continue
		}
		t := queue[0]
		queue = queue[1:]
		queued[t] = false
		run := quantum
		if pending[t] < run {
			run = pending[t]
		}
		if left := cfg.Budgets[t] - scheduled[t]; left < run {
			run = left
		}
		scheduled[t] += run
		pending[t] -= run
		clock += run
		if k := len(out) - 1; k >= 0 && out[k].Tenant == t {
			out[k].Length += run // same tenant kept the core: no switch
		} else {
			out = append(out, Slice{Tenant: t, Length: run})
		}
		if scheduled[t] >= cfg.Budgets[t] {
			done++
			pending[t] = 0
		}
	}
	return out
}
