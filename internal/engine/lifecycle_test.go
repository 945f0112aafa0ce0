package engine

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"github.com/datastates/mlpoffload/internal/checkpoint"
	"github.com/datastates/mlpoffload/internal/storage"
)

// TestDrainReportsLostObject: a tier drops an offloaded subgroup's object
// behind the engine's back. Every reader of tier state — gather,
// checkpoint — fails at its drain with a LostObjectError naming the
// subgroup and the tier, Restore from an earlier checkpoint recovers,
// and a second copy on the wrong tier is only an orphan.
func TestDrainReportsLostObject(t *testing.T) {
	ctx := context.Background()
	cfg := MLPConfig(0, 800, 100, memTiers(1000, 600), nil)
	cfg.Grad = QuadraticGradFn(2)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	trainRange(t, e, 0, 3)
	ckptTier := storage.NewMemTier("ckpt")
	w := checkpoint.NewWriter(ckptTier, "run")
	defer w.Close()
	if _, err := e.Checkpoint(ctx, 3, w); err != nil {
		t.Fatal(err)
	}
	want := gather(t, e)

	victim := -1
	for sg, l := range e.loc {
		if l != locHost {
			victim = sg
			break
		}
	}
	if victim < 0 {
		t.Fatal("no offloaded subgroup")
	}
	home := e.loc[victim]
	other := 1 - home

	// A stray copy on the other tier: counted once, however many drains see it.
	obj, err := storage.ReadWholeObject(ctx, cfg.Tiers[home].Tier, e.key(victim))
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Tiers[other].Tier.Write(ctx, e.key(victim), obj); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		gather(t, e)
	}
	if got := e.MigrationStats().Orphans; got != 1 {
		t.Errorf("orphans = %d after two drains over one stray copy, want 1", got)
	}
	if err := cfg.Tiers[other].Tier.Delete(ctx, e.key(victim)); err != nil {
		t.Fatal(err)
	}

	if err := cfg.Tiers[home].Tier.Delete(ctx, e.key(victim)); err != nil {
		t.Fatal(err)
	}
	var lost *LostObjectError
	err = e.GatherParams(make([]float32, cfg.Params))
	if !errors.As(err, &lost) || lost.Subgroup != victim || lost.Tier != e.names[home] || !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("gather over a dropped object: %v, want a LostObjectError for subgroup %d on %s", err, victim, e.names[home])
	}
	if _, err := e.Checkpoint(ctx, 4, w); !errors.As(err, &lost) {
		t.Fatalf("checkpoint over a dropped object: %v, want a LostObjectError", err)
	}

	restoreLatest(t, e, checkpoint.NewReader(ckptTier, "run"))
	got := gather(t, e)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("param %d after restore: %v, want %v", i, got[i], want[i])
		}
	}
}

// noDeleteTier fails every Delete and records the keys it refused.
type noDeleteTier struct {
	storage.Tier
	mu      sync.Mutex
	refused map[string]bool
}

func (n *noDeleteTier) Delete(ctx context.Context, key string) error {
	n.mu.Lock()
	n.refused[key] = true
	n.mu.Unlock()
	return errors.New("delete refused")
}

// TestFailedReclaimsCountedAsOrphans: whichever path reclaims a stale
// object — an eviction landing on a new tier, backward moving a gradient
// object — a failed delete is one orphan per object left behind, and a
// drain that then finds the object does not count it again.
func TestFailedReclaimsCountedAsOrphans(t *testing.T) {
	cases := []struct {
		name   string
		tune   func(*Config)
		suffix string // some refused key must carry it
	}{
		// Half the shard host-resident: the subgroups a replan displaces
		// are evicted onto their new tiers, host-resident or not.
		{"eviction", func(c *Config) { c.HostCacheSlots = 6 }, ".opt"},
		{"gradient", func(c *Config) { c.SkipGradFlush = false }, ".grad"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tiers, _, pfs := throttledPair(2e6, 1e6)
			var wrapped []*noDeleteTier
			for i := range tiers {
				nd := &noDeleteTier{Tier: tiers[i].Tier, refused: make(map[string]bool)}
				tiers[i].Tier = nd
				wrapped = append(wrapped, nd)
			}
			cfg := MLPConfig(0, 1200, 100, tiers, nil)
			cfg.Grad = QuadraticGradFn(2)
			tc.tune(&cfg)
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			trainRange(t, e, 0, 3)
			pfs.SetRates(5e4, 5e4) // the plan shifts; objects change tiers
			trainRange(t, e, 3, 10)
			e.Drain()

			refused, matched := 0, false
			for _, nd := range wrapped {
				refused += len(nd.refused)
				for key := range nd.refused {
					matched = matched || strings.HasSuffix(key, tc.suffix)
				}
			}
			if !matched {
				t.Fatalf("no %s object was ever reclaimed; the scenario exercises nothing", tc.suffix)
			}
			if got := e.MigrationStats().Orphans; got != int64(refused) {
				t.Errorf("orphans = %d, want one per refused delete = %d", got, refused)
			}
			gather(t, e) // its drain finds the same stale objects
			if got := e.MigrationStats().Orphans; got != int64(refused) {
				t.Errorf("orphans = %d after a drain re-found them, want still %d", got, refused)
			}
		})
	}
}
