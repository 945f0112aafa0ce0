package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/datastates/mlpoffload/internal/checkpoint"
	"github.com/datastates/mlpoffload/internal/clock"
	"github.com/datastates/mlpoffload/internal/storage"
	"github.com/datastates/mlpoffload/internal/subgroup"
	"github.com/datastates/mlpoffload/internal/tiercodec"
)

// TestNewRestoredAdoptsDeadRankShard: the elastic re-shard path — a
// fresh engine built with the dead rank's config, restored from that
// rank's manifest on the surviving node's tiers, reproduces the dead
// rank's parameters exactly and keeps training bit-identically.
func TestNewRestoredAdoptsDeadRankShard(t *testing.T) {
	ctx := context.Background()
	mkCfg := func() Config {
		tiers := []TierSpec{{Tier: storage.NewMemTier("nvme"), ReadBW: 500, WriteBW: 500}}
		cfg := MLPConfig(7, 400, 100, tiers, nil)
		cfg.AdaptivePlacement = false
		cfg.Grad = QuadraticGradFn(3)
		return cfg
	}

	// The "dead" rank trains, checkpoints, keeps training, and we record
	// its final parameters as the reference.
	dead, err := New(mkCfg())
	if err != nil {
		t.Fatal(err)
	}
	trainRange(t, dead, 0, 3)
	ckptTier := storage.NewMemTier("ckpt")
	w := checkpoint.NewWriter(ckptTier, "run-rank007")
	m, err := dead.Checkpoint(ctx, 3, w)
	w.Close()
	if err != nil {
		t.Fatal(err)
	}
	trainRange(t, dead, 3, 6)
	want := gather(t, dead)
	dead.Close()

	// A survivor adopts the shard: NewRestored with the dead rank's
	// geometry, its own (fresh) tier handles, restored from the manifest.
	r := checkpoint.NewReader(ckptTier, "run-rank007")
	adopted, err := NewRestored(ctx, mkCfg(), r, m)
	if err != nil {
		t.Fatal(err)
	}
	defer adopted.Close()
	trainRange(t, adopted, 3, 6)
	got := gather(t, adopted)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("param %d differs after re-shard adoption: %v vs %v", i, got[i], want[i])
		}
	}

	// Geometry mismatch must fail construction and leak nothing.
	bad := mkCfg()
	bad.Rank = 3
	if _, err := NewRestored(ctx, bad, r, m); err == nil {
		t.Fatal("NewRestored accepted a manifest for a different rank")
	}
}

// TestCorruptRetryBackoffExactVirtual: corrupt re-reads are paced by the
// engine's wire.Backoff policy (1 ms doubling to 20 ms) on the engine
// clock — on a virtual clock the elapsed time of an exhausted retry
// budget is exact.
func TestCorruptRetryBackoffExactVirtual(t *testing.T) {
	clk := clock.NewVirtualAuto()
	fault := tiercodec.NewFaultTier(storage.NewMemTier("nvme"), tiercodec.FaultConfig{
		CorruptReadEvery: 1, // every read corrupt: the budget always exhausts
	})
	tiers := []TierSpec{{Tier: fault, ReadBW: 500, WriteBW: 500, Codec: codecSpec}}
	cfg := MLPConfig(0, 400, 100, tiers, nil)
	cfg.AdaptivePlacement = false
	cfg.Clock = clk
	cfg.CorruptRetries = 6
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Pick an offloaded subgroup (host-resident ones never touch the
	// faulty tier).
	sgID := -1
	for i := range e.shard.Subgroups {
		if e.loc[i] != locHost {
			sgID = i
			break
		}
	}
	if sgID < 0 {
		t.Fatal("no offloaded subgroup to read")
	}
	size := subgroup.StateBytes(e.shard.Subgroups[sgID].Len())
	buf := make([]byte, size)
	start := clk.Now()
	err = e.readSyncRetry(e.loc[sgID], e.key(sgID), buf)
	if !errors.Is(err, tiercodec.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt after exhausted retries", err)
	}
	// Six paced re-reads: 1 + 2 + 4 + 8 + 16 + 20 (capped) ms, exact on
	// the virtual clock.
	if got, want := clk.Since(start), 51*time.Millisecond; got != want {
		t.Fatalf("retry pacing = %v, want exactly %v", got, want)
	}
	if got := e.IntegrityRetries(); got != 6 {
		t.Fatalf("IntegrityRetries = %d, want 6", got)
	}
}
