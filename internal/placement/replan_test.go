package placement

import (
	"math/rand"
	"reflect"
	"testing"
)

// moves counts the subgroups whose tier differs between two plans.
func moves(a, b Plan) int {
	n := 0
	for sg := range a.Assign {
		if a.Assign[sg] != b.Assign[sg] {
			n++
		}
	}
	return n
}

// maxRun is the longest stretch of consecutive subgroups on one tier.
func maxRun(assign []int) int {
	best, run := 0, 0
	for i := range assign {
		if i > 0 && assign[i] == assign[i-1] {
			run++
		} else {
			run = 1
		}
		best = max(best, run)
	}
	return best
}

// tally counts each tier's subgroups in a plan's assignment.
func tally(p Plan) []int {
	got := make([]int, len(p.Tiers))
	for _, t := range p.Assign {
		got[t]++
	}
	return got
}

func bw(pairs ...any) []TierBandwidth {
	var out []TierBandwidth
	for i := 0; i < len(pairs); i += 2 {
		out = append(out, TierBandwidth{Name: pairs[i].(string), BW: pairs[i+1].(float64)})
	}
	return out
}

func TestReplanMoveCounts(t *testing.T) {
	cases := []struct {
		name      string
		m         int
		from, to  []TierBandwidth
		wantMoves int
	}{
		{"unchanged bandwidths", 96, bw("nvme", 1.0, "pfs", 1.0), bw("nvme", 1.0, "pfs", 1.0), 0},
		{"new bandwidths, same counts", 96, bw("nvme", 1.0, "pfs", 1.0), bw("nvme", 2.0, "pfs", 2.0), 0},
		{"48:48 to 49:47", 96, bw("nvme", 1.0, "pfs", 1.0), bw("nvme", 49.0, "pfs", 47.0), 1},
		{"48:48 to 47:49", 96, bw("nvme", 1.0, "pfs", 1.0), bw("nvme", 47.0, "pfs", 49.0), 1},
		{"48:48 to 53:43 (5-shift)", 96, bw("nvme", 1.0, "pfs", 1.0), bw("nvme", 53.0, "pfs", 43.0), 5},
		{"48:48 to 72:24 (24-shift)", 96, bw("nvme", 1.0, "pfs", 1.0), bw("nvme", 3.0, "pfs", 1.0), 24},
		{"64:32 to 32:64", 96, bw("nvme", 2.0, "pfs", 1.0), bw("nvme", 1.0, "pfs", 2.0), 32},
		{"a tier loses all bandwidth", 96, bw("nvme", 2.0, "pfs", 1.0), bw("nvme", 1.0, "pfs", 0.0), 32},
		{"three tiers, 32:32:32 to 34:31:31", 96, bw("a", 1.0, "b", 1.0, "c", 1.0), bw("a", 34.0, "b", 31.0, "c", 31.0), 2},
		{"three tiers, 32:32:32 to 40:40:16", 96, bw("a", 1.0, "b", 1.0, "c", 1.0), bw("a", 5.0, "b", 5.0, "c", 2.0), 16},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prev := NewPlan(tc.m, tc.from)
			next := Replan(prev, tc.to)
			if got := moves(prev, next); got != tc.wantMoves {
				t.Errorf("moved %d subgroups, want %d", got, tc.wantMoves)
			}
			if want := Split(tc.m, tc.to); !reflect.DeepEqual(next.Counts, want) || !reflect.DeepEqual(tally(next), want) {
				t.Errorf("counts %v, assigned %v, want Split's %v", next.Counts, tally(next), want)
			}
			if !reflect.DeepEqual(next.Tiers, tc.to) {
				t.Errorf("plan tiers %v, want %v", next.Tiers, tc.to)
			}
		})
	}
}

// TestReplanChangedTierSetIsNewPlan: with different tiers (names, order
// or number) there is no assignment to keep.
func TestReplanChangedTierSetIsNewPlan(t *testing.T) {
	prev := NewPlan(96, bw("nvme", 1.0, "pfs", 1.0))
	for _, tiers := range [][]TierBandwidth{
		bw("nvme", 2.0, "ssd", 1.0),
		bw("pfs", 1.0, "nvme", 1.0),
		bw("nvme", 1.0, "pfs", 1.0, "ssd", 1.0),
		bw("nvme", 1.0),
	} {
		if got, want := Replan(prev, tiers), NewPlan(96, tiers); !reflect.DeepEqual(got, want) {
			t.Errorf("Replan onto %v = %v, want NewPlan's %v", tiers, got.Assign, want.Assign)
		}
	}
}

// walk drives a chain of replans over a random bandwidth sequence and
// calls check after each one.
func walk(t *testing.T, seeds, steps, tiers int, check func(t *testing.T, prev, next Plan)) {
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(200)
		tbw := make([]TierBandwidth, tiers)
		for i := range tbw {
			tbw[i] = TierBandwidth{Name: string(rune('a' + i)), BW: 1 + 9*rng.Float64()}
		}
		p := NewPlan(m, tbw)
		for s := 0; s < steps; s++ {
			for i := range tbw {
				tbw[i].BW = max(0.1, tbw[i].BW*(0.7+0.6*rng.Float64()))
			}
			next := Replan(p, tbw)
			check(t, p, next)
			if t.Failed() {
				t.Fatalf("seed %d step %d (m=%d)", seed, s, m)
			}
			p = next
		}
	}
}

// TestPropertyReplanMatchesSplit: over random bandwidth sequences every
// replan's per-tier counts are Split's, and it moves exactly the
// over-full tiers' surplus — no subgroup more.
func TestPropertyReplanMatchesSplit(t *testing.T) {
	for _, tiers := range []int{2, 3} {
		walk(t, 40, 50, tiers, func(t *testing.T, prev, next Plan) {
			want := Split(len(prev.Assign), next.Tiers)
			if got := tally(next); !reflect.DeepEqual(got, want) || !reflect.DeepEqual(next.Counts, want) {
				t.Errorf("assigned %v, counts %v, want Split's %v", got, next.Counts, want)
			}
			surplus := 0
			for i, c := range tally(prev) {
				surplus += max(c-want[i], 0)
			}
			if got := moves(prev, next); got != surplus {
				t.Errorf("moved %d subgroups, surplus is %d", got, surplus)
			}
		})
	}
}

// TestReplanKeepsInterleaving pins Fig. 6's interleaving across chains
// of replans: the longest same-tier run stays within a small factor of
// what NewPlan deals at the same counts: 2× on two tiers, 3× on three,
// the worst seen over 180,000 random replans (m up to 400, 150-step
// chains). Picking the moved subgroups evenly spaced among their tier's
// members instead lets runs grow without bound along a chain (47 against
// NewPlan's 10 in the same search). A one-step change from a fresh plan
// costs at most one extra.
func TestReplanKeepsInterleaving(t *testing.T) {
	for _, tiers := range []int{2, 3} {
		walk(t, 40, 50, tiers, func(t *testing.T, _, next Plan) {
			ref := NewPlan(len(next.Assign), next.Tiers)
			if got, lim := maxRun(next.Assign), tiers*maxRun(ref.Assign); got > lim {
				t.Errorf("%d tiers, counts %v: longest run %d, NewPlan's %d (limit %d)",
					tiers, next.Counts, got, maxRun(ref.Assign), lim)
			}
		})
	}
	prev := NewPlan(96, bw("nvme", 1.0, "pfs", 1.0))
	for k := 1; k <= 24; k++ {
		to := bw("nvme", float64(48+k), "pfs", float64(48-k))
		next, ref := Replan(prev, to), NewPlan(96, to)
		if got, want := maxRun(next.Assign), maxRun(ref.Assign); got > want+1 {
			t.Errorf("48:48 to %d:%d: longest run %d, NewPlan's %d", 48+k, 48-k, got, want)
		}
	}
}
