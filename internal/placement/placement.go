// Package placement implements the paper's performance model for subgroup
// allocation across the storage paths of a virtual tier (§3.3, Eq. 1):
//
//	T_i = ceil(M * B_i / sum(B)) adjusted so that sum(T_i) = M
//
// where M is the number of equally sized subgroups and B_i is the I/O
// bandwidth (min of read and write throughput) of path i. Bandwidths start
// from microbenchmarks and are re-estimated each iteration from observed
// fetch/flush throughput (EWMA), so placement adapts to external pressure
// on shared tiers like a PFS.
package placement

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// TierBandwidth is one storage path's placement input.
type TierBandwidth struct {
	Name string
	// BW is min(read, write) bandwidth in bytes/second.
	BW float64
}

// Plan maps subgroup indices to tier indices.
type Plan struct {
	Tiers  []TierBandwidth
	Counts []int // Counts[i] = number of subgroups assigned to tier i
	Assign []int // Assign[sg] = tier index for subgroup sg
}

// Split computes Eq. 1: per-tier subgroup counts proportional to bandwidth
// with a largest-remainder correction so counts sum exactly to m. Tiers
// with non-positive bandwidth receive zero subgroups. It panics if m < 0 or
// no tier has positive bandwidth (with m > 0).
func Split(m int, tiers []TierBandwidth) []int {
	if m < 0 {
		panic("placement: negative subgroup count")
	}
	counts := make([]int, len(tiers))
	if m == 0 {
		return counts
	}
	total := 0.0
	for _, t := range tiers {
		if t.BW > 0 {
			total += t.BW
		}
	}
	if total <= 0 {
		panic("placement: no tier with positive bandwidth")
	}
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, 0, len(tiers))
	assigned := 0
	for i, t := range tiers {
		if t.BW <= 0 {
			continue
		}
		exact := float64(m) * t.BW / total
		fl := int(math.Floor(exact))
		counts[i] = fl
		assigned += fl
		rems = append(rems, rem{i, exact - float64(fl)})
	}
	// Distribute the remainder to the largest fractional parts; break ties
	// by higher bandwidth then lower index for determinism.
	sort.Slice(rems, func(a, b int) bool {
		if rems[a].frac != rems[b].frac {
			return rems[a].frac > rems[b].frac
		}
		if tiers[rems[a].idx].BW != tiers[rems[b].idx].BW {
			return tiers[rems[a].idx].BW > tiers[rems[b].idx].BW
		}
		return rems[a].idx < rems[b].idx
	})
	for k := 0; assigned < m; k++ {
		counts[rems[k%len(rems)].idx]++
		assigned++
	}
	return counts
}

// NewPlan builds a full plan: Split plus a deterministic interleaved
// subgroup→tier assignment. Interleaving (round-robin weighted by counts)
// rather than contiguous blocks lets consecutive subgroups prefetch from
// different paths in parallel, which is what gives multi-path I/O its
// overlap (Figure 6: S1 from NVMe and S2 from PFS fetched concurrently).
// It deals initial plans; a replan derives from the plan it replaces
// (Replan).
func NewPlan(m int, tiers []TierBandwidth) Plan {
	counts := Split(m, tiers)
	assign := make([]int, m)
	remaining := append([]int(nil), counts...)
	// Largest-remaining-count first each step => weighted round robin.
	for sg := 0; sg < m; sg++ {
		best := -1
		for i := range remaining {
			if remaining[i] <= 0 {
				continue
			}
			if best == -1 {
				best = i
				continue
			}
			// Compare remaining share relative to plan size.
			a := float64(remaining[i]) / float64(counts[i])
			b := float64(remaining[best]) / float64(counts[best])
			if a > b || (a == b && remaining[i] > remaining[best]) {
				best = i
			}
		}
		if best == -1 {
			panic("placement: ran out of capacity before assigning all subgroups")
		}
		assign[sg] = best
		remaining[best]--
	}
	return Plan{Tiers: append([]TierBandwidth(nil), tiers...), Counts: counts, Assign: assign}
}

// Replan derives the plan for new bandwidths from prev, moving as few
// subgroups as Split's counts allow: each over-full tier gives up
// exactly its surplus, to the under-full tiers, and every other
// subgroup stays where it is. A 48:48 → 49:47 change moves one
// subgroup, not half of them. A different tier set (names, in order)
// leaves nothing to keep, so that replan is NewPlan's.
//
// Which subgroups move is chosen to keep Fig. 6's interleaving along
// chains of replans (TestReplanKeepsInterleaving bounds the longest
// same-tier run): one move at a time, the move that creates the
// shortest run of its destination tier, then the one splitting the
// longest run of its source tier nearest its middle, then the lowest
// subgroup and tier index.
func Replan(prev Plan, tiers []TierBandwidth) Plan {
	m := len(prev.Assign)
	if !sameTiers(prev.Tiers, tiers) {
		return NewPlan(m, tiers)
	}
	counts := Split(m, tiers)
	assign := append([]int(nil), prev.Assign...)
	have := make([]int, len(tiers))
	moves := 0
	for _, t := range assign {
		have[t]++
	}
	for t := range tiers {
		moves += max(have[t]-counts[t], 0)
	}
	// ending[i] / starting[i]: length of the same-tier run that ends /
	// starts at subgroup i.
	ending, starting := make([]int, m), make([]int, m)
	for ; moves > 0; moves-- {
		for i := range assign {
			ending[i] = 1
			if i > 0 && assign[i-1] == assign[i] {
				ending[i] += ending[i-1]
			}
			j := m - 1 - i
			starting[j] = 1
			if j < m-1 && assign[j+1] == assign[j] {
				starting[j] += starting[j+1]
			}
		}
		type cost struct{ run, split, skew int }
		bestSg, bestTo := -1, -1
		var best cost
		for sg, t := range assign {
			if have[t] <= counts[t] {
				continue
			}
			l, r := ending[sg]-1, starting[sg]-1
			for u := range tiers {
				if have[u] >= counts[u] {
					continue
				}
				c := cost{run: 1, split: -(l + r), skew: max(l-r, r-l)}
				if sg > 0 && assign[sg-1] == u {
					c.run += ending[sg-1]
				}
				if sg < m-1 && assign[sg+1] == u {
					c.run += starting[sg+1]
				}
				if bestSg < 0 || c.run < best.run ||
					c.run == best.run && (c.split < best.split || c.split == best.split && c.skew < best.skew) {
					bestSg, bestTo, best = sg, u, c
				}
			}
		}
		have[assign[bestSg]]--
		have[bestTo]++
		assign[bestSg] = bestTo
	}
	return Plan{Tiers: append([]TierBandwidth(nil), tiers...), Counts: counts, Assign: assign}
}

// sameTiers reports whether a and b name the same tiers in the same
// order.
func sameTiers(a, b []TierBandwidth) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name {
			return false
		}
	}
	return true
}

// TierFor returns the tier index for a subgroup.
func (p Plan) TierFor(sg int) int {
	if sg < 0 || sg >= len(p.Assign) {
		panic(fmt.Sprintf("placement: subgroup %d out of range [0,%d)", sg, len(p.Assign)))
	}
	return p.Assign[sg]
}

// Ratio returns the tier counts as a human-readable ratio string, e.g.
// "nvme:pfs = 2:1".
func (p Plan) Ratio() string {
	names := ""
	vals := ""
	for i, t := range p.Tiers {
		if i > 0 {
			names += ":"
			vals += ":"
		}
		names += t.Name
		vals += fmt.Sprintf("%d", p.Counts[i])
	}
	return names + " = " + vals
}

// Estimator maintains per-tier EWMA bandwidth estimates seeded from
// microbenchmarks and updated with observed transfer throughput, as §3.3
// prescribes ("after the first iteration, B_i is adjusted based on the
// average observed I/O bandwidth").
//
// Reads and writes are tracked separately: the Eq. 1 placement input is
// min(read, write), and a single blended EWMA would let a burst of fast
// reads mask a slow write path (or vice versa) on write-asymmetric tiers.
// Fetches feed ObserveRead, eviction flushes and migration writes feed
// ObserveWrite, and Bandwidths folds the two back into the min the
// planner consumes.
type Estimator struct {
	mu      sync.Mutex
	alpha   float64
	readBW  map[string]float64
	writeBW map[string]float64
}

// NewEstimator creates an estimator with smoothing factor alpha in (0,1]
// (1 = use only the latest observation). Typical alpha: 0.5.
func NewEstimator(alpha float64) *Estimator {
	if alpha <= 0 || alpha > 1 {
		panic("placement: alpha must be in (0,1]")
	}
	return &Estimator{
		alpha:   alpha,
		readBW:  make(map[string]float64),
		writeBW: make(map[string]float64),
	}
}

// Seed sets the initial microbenchmarked read and write bandwidths for a
// tier.
func (e *Estimator) Seed(tier string, readBW, writeBW float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.readBW[tier] = readBW
	e.writeBW[tier] = writeBW
}

// observe folds one observation into an EWMA map. Caller holds mu.
func (e *Estimator) observe(m map[string]float64, tier string, bytes, seconds float64) {
	if seconds <= 0 || bytes <= 0 {
		return
	}
	obs := bytes / seconds
	cur, ok := m[tier]
	if !ok {
		m[tier] = obs
		return
	}
	m[tier] = cur + e.alpha*(obs-cur)
}

// ObserveRead folds a measured fetch (bytes over seconds) into the tier's
// read estimate. Zero-duration observations are ignored.
func (e *Estimator) ObserveRead(tier string, bytes, seconds float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.observe(e.readBW, tier, bytes, seconds)
}

// ObserveWrite folds a measured flush (bytes over seconds) into the
// tier's write estimate. Zero-duration observations are ignored.
func (e *Estimator) ObserveWrite(tier string, bytes, seconds float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.observe(e.writeBW, tier, bytes, seconds)
}

// Estimate returns the tier's current Eq. 1 bandwidth — min of the known
// read and write estimates — and whether any estimate exists.
func (e *Estimator) Estimate(tier string) (float64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.estimate(tier)
}

// estimate returns min(read, write) over the known directions. Caller
// holds mu.
func (e *Estimator) estimate(tier string) (float64, bool) {
	r, rok := e.readBW[tier]
	w, wok := e.writeBW[tier]
	switch {
	case rok && wok:
		if w < r {
			return w, true
		}
		return r, true
	case rok:
		return r, true
	case wok:
		return w, true
	}
	return 0, false
}

// EstimateRead returns the tier's read-bandwidth estimate.
func (e *Estimator) EstimateRead(tier string) (float64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	bw, ok := e.readBW[tier]
	return bw, ok
}

// EstimateWrite returns the tier's write-bandwidth estimate.
func (e *Estimator) EstimateWrite(tier string) (float64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	bw, ok := e.writeBW[tier]
	return bw, ok
}

// Bandwidths materializes min(read, write) estimates for the given tier
// names, in order, falling back to fallback for unknown tiers.
func (e *Estimator) Bandwidths(names []string, fallback float64) []TierBandwidth {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]TierBandwidth, len(names))
	for i, n := range names {
		bw, ok := e.estimate(n)
		if !ok {
			bw = fallback
		}
		out[i] = TierBandwidth{Name: n, BW: bw}
	}
	return out
}
