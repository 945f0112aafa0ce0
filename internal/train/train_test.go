package train

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"github.com/datastates/mlpoffload/internal/checkpoint"
	"github.com/datastates/mlpoffload/internal/engine"
	"github.com/datastates/mlpoffload/internal/storage"
)

func nodeTiers(bws ...float64) []engine.TierSpec {
	out := make([]engine.TierSpec, len(bws))
	for i, bw := range bws {
		out[i] = engine.TierSpec{
			Tier:    storage.NewMemTier(fmt.Sprintf("t%d", i)),
			ReadBW:  bw,
			WriteBW: bw,
		}
	}
	return out
}

func TestNodeValidation(t *testing.T) {
	if _, err := NewNode(NodeConfig{Workers: 0}); err == nil {
		t.Error("zero workers accepted")
	}
	if _, err := NewNode(NodeConfig{Workers: 1, ParamsPerWorker: 0, SubgroupParams: 10, Tiers: nodeTiers(1)}); err == nil {
		t.Error("zero params accepted")
	}
}

// TestNewNodeConcurrentConstruction: the workers' engines are built
// concurrently, yet Mutate still runs rank by rank, Workers() stays in
// rank order, and a construction failure on one rank closes every engine
// the others built (their aio workers exit).
func TestNewNodeConcurrentConstruction(t *testing.T) {
	const workers = 4
	var mutated []int
	cfg := NodeConfig{
		Workers: workers, ParamsPerWorker: 300, SubgroupParams: 60,
		Tiers: nodeTiers(1000, 600), MLP: true,
		Mutate: func(rank int, c *engine.Config) {
			mutated = append(mutated, rank)
			c.InitParams = func(int64) float32 { return float32(rank) }
		},
	}
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, rank := range mutated {
		if rank != i {
			t.Fatalf("Mutate ran for ranks %v, want 0..%d in order", mutated, workers-1)
		}
	}
	dst := make([]float32, cfg.ParamsPerWorker)
	for rank, e := range n.Workers() {
		if err := e.GatherParams(dst); err != nil {
			t.Fatal(err)
		}
		for i, p := range dst {
			if p != float32(rank) {
				t.Fatalf("Workers()[%d] param %d = %v: engine of rank %v", rank, i, p, p)
			}
		}
	}
	n.Close()

	before := runtime.NumGoroutine()
	cfg.Mutate = func(rank int, c *engine.Config) {
		if rank == 2 {
			c.HostCacheSlots = -1
		}
	}
	if _, err := NewNode(cfg); err == nil || !strings.Contains(err.Error(), "worker 2") {
		t.Fatalf("NewNode with an invalid rank 2: err = %v, want worker 2's failure", err)
	}
	// Close returns once the aio workers are done; yield until they have
	// also exited.
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 1_000_000 {
			t.Fatalf("goroutines: %d before, %d after a failed NewNode — an engine was left open", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
	}
}

func TestFourWorkerTraining(t *testing.T) {
	n, err := NewNode(NodeConfig{
		Workers: 4, ParamsPerWorker: 500, SubgroupParams: 100,
		Tiers: nodeTiers(1000, 600), MLP: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if len(n.Workers()) != 4 {
		t.Fatalf("workers = %d", len(n.Workers()))
	}
	s, err := n.Train(4)
	if err != nil {
		t.Fatal(err)
	}
	m := s.Mean()
	if m.ParamsUpdated != 4*500 {
		t.Errorf("node params updated = %d, want 2000", m.ParamsUpdated)
	}
	if m.Phases.Update <= 0 {
		t.Error("update phase not timed")
	}
	// Exclusive locks exercised by all workers.
	if n.Locks().Stats("t0").Grants == 0 {
		t.Error("tier locks never taken")
	}
}

func TestNodeConvergence(t *testing.T) {
	n, err := NewNode(NodeConfig{
		Workers: 2, ParamsPerWorker: 300, SubgroupParams: 60,
		Tiers: nodeTiers(1000), MLP: true,
		Mutate: func(_ int, cfg *engine.Config) {
			cfg.Hyper.LR = 0.05
			cfg.Grad = engine.QuadraticGradFn(4)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, err := n.Train(200); err != nil {
		t.Fatal(err)
	}
	all, err := n.GatherAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 600 {
		t.Fatalf("gathered %d params", len(all))
	}
	for i, p := range all {
		if math.Abs(float64(p)-4) > 0.15 {
			t.Fatalf("param %d = %v, want ~4", i, p)
		}
	}
}

func TestBaselineNodeNoLocks(t *testing.T) {
	n, err := NewNode(NodeConfig{
		Workers: 2, ParamsPerWorker: 200, SubgroupParams: 50,
		Tiers: nodeTiers(1000), MLP: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if n.Locks().Exclusive() {
		t.Error("baseline node should not enforce exclusivity")
	}
	if _, err := n.Train(2); err != nil {
		t.Fatal(err)
	}
}

func TestAggregateSemantics(t *testing.T) {
	r := IterationResult{}
	_ = r
	n, err := NewNode(NodeConfig{
		Workers: 3, ParamsPerWorker: 100, SubgroupParams: 50,
		Tiers: nodeTiers(500), MLP: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	res, err := n.TrainIteration()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerWorker) != 3 {
		t.Fatalf("per-worker = %d", len(res.PerWorker))
	}
	// Node phases are maxima; counters are sums.
	var maxUpd float64
	var sumMisses int
	for _, it := range res.PerWorker {
		if it.Phases.Update > maxUpd {
			maxUpd = it.Phases.Update
		}
		sumMisses += it.CacheMisses
	}
	if res.Node.Phases.Update != maxUpd {
		t.Errorf("node update = %v, want max %v", res.Node.Phases.Update, maxUpd)
	}
	if res.Node.CacheMisses != sumMisses {
		t.Errorf("node misses = %d, want %d", res.Node.CacheMisses, sumMisses)
	}
}

func TestCloseIdempotent(t *testing.T) {
	n, err := NewNode(NodeConfig{
		Workers: 1, ParamsPerWorker: 100, SubgroupParams: 50,
		Tiers: nodeTiers(500), MLP: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Close()
	n.Close()
}

// TestNodeCheckpointResumeBitIdentical: a coordinated checkpoint at an
// iteration boundary, a crash that wipes the volatile tier, and a resume
// on a fresh node must reproduce the uninterrupted run exactly on every
// worker.
func TestNodeCheckpointResumeBitIdentical(t *testing.T) {
	const (
		k = 3 // crash after k iterations
		n = 6
	)
	ctx := context.Background()
	mkCfg := func(pfs storage.Tier) NodeConfig {
		return NodeConfig{
			Workers: 2, ParamsPerWorker: 400, SubgroupParams: 80,
			Tiers: []engine.TierSpec{
				{Tier: storage.NewMemTier("nvme"), ReadBW: 690, WriteBW: 530},
				{Tier: pfs, ReadBW: 360, WriteBW: 360, Persistent: true},
			},
			MLP: true,
			Mutate: func(_ int, cfg *engine.Config) {
				cfg.Grad = engine.QuadraticGradFn(2)
				cfg.Hyper.LR = 0.02
			},
		}
	}
	trainIters := func(nd *Node, iters int) {
		t.Helper()
		for i := 0; i < iters; i++ {
			if _, err := nd.TrainIteration(); err != nil {
				t.Fatal(err)
			}
		}
	}

	ref, err := NewNode(mkCfg(storage.NewMemTier("pfs")))
	if err != nil {
		t.Fatal(err)
	}
	trainIters(ref, n)
	want, err := ref.GatherAll()
	if err != nil {
		t.Fatal(err)
	}
	ref.Close()

	pfs := storage.NewMemTier("pfs") // persists across the crash
	nd, err := NewNode(mkCfg(pfs))
	if err != nil {
		t.Fatal(err)
	}
	trainIters(nd, k)
	ckptTier := storage.NewMemTier("ckpt")
	mans, err := nd.Checkpoint(ctx, ckptTier, "demo")
	if err != nil {
		t.Fatal(err)
	}
	if len(mans) != 2 {
		t.Fatalf("manifests = %d", len(mans))
	}
	for rank, m := range mans {
		if m.Step != k || m.Rank != rank {
			t.Errorf("rank %d manifest step=%d rank=%d", rank, m.Step, m.Rank)
		}
	}
	nd.Close() // crash: the nvme MemTiers die with the node

	nd2, err := NewNode(mkCfg(pfs))
	if err != nil {
		t.Fatal(err)
	}
	defer nd2.Close()
	step, err := nd2.Resume(ctx, ckptTier, "demo")
	if err != nil {
		t.Fatal(err)
	}
	if step != k {
		t.Fatalf("resumed at %d, want %d", step, k)
	}
	trainIters(nd2, n-k)
	got, err := nd2.GatherAll()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("param %d differs after node resume: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestNodeResumeRequiresCompleteCheckpoint: a step is resumable only when
// every rank committed its manifest; a partial (crashed mid-checkpoint)
// step is skipped in favor of the newest complete one.
func TestNodeResumeRequiresCompleteCheckpoint(t *testing.T) {
	ctx := context.Background()
	cfg := NodeConfig{
		Workers: 2, ParamsPerWorker: 200, SubgroupParams: 50,
		Tiers: nodeTiers(1000), MLP: true,
	}
	nd, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()

	ckptTier := storage.NewMemTier("ckpt")
	if _, err := nd.Resume(ctx, ckptTier, "demo"); err == nil {
		t.Fatal("resume succeeded with no checkpoint")
	}

	for i := 0; i < 2; i++ {
		if _, err := nd.TrainIteration(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nd.Checkpoint(ctx, ckptTier, "demo"); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-checkpoint at a later step: only rank 0's
	// manifest landed.
	orphan := checkpoint.NewWriter(ckptTier, rankPrefix("demo", 0))
	if err := orphan.WriteManifest(checkpoint.Manifest{FormatVersion: checkpoint.ManifestVersion, Step: 9}); err != nil {
		t.Fatal(err)
	}
	orphan.Close()

	step, err := nd.Resume(ctx, ckptTier, "demo")
	if err != nil {
		t.Fatal(err)
	}
	if step != 2 {
		t.Errorf("resumed at step %d, want the complete step 2 (9 is partial)", step)
	}
}

func TestMutatePerRank(t *testing.T) {
	seen := map[int]bool{}
	n, err := NewNode(NodeConfig{
		Workers: 3, ParamsPerWorker: 100, SubgroupParams: 50,
		Tiers: nodeTiers(500), MLP: true,
		Mutate: func(rank int, cfg *engine.Config) {
			seen[rank] = true
			if cfg.Rank != rank {
				t.Errorf("cfg.Rank = %d for rank %d", cfg.Rank, rank)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	for r := 0; r < 3; r++ {
		if !seen[r] {
			t.Errorf("mutate not called for rank %d", r)
		}
	}
}

// TestNodeResumeSkipsTornManifest: a rank whose newest manifest landed
// truncated (a crash mid-commit) silently rolls the whole node back to
// the previous step every rank holds intact.
func TestNodeResumeSkipsTornManifest(t *testing.T) {
	ctx := context.Background()
	cfg := NodeConfig{
		Workers: 2, ParamsPerWorker: 200, SubgroupParams: 50,
		Tiers: nodeTiers(1000), MLP: true,
	}
	nd, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()

	ckptTier := storage.NewMemTier("ckpt")
	for step := 1; step <= 2; step++ {
		if _, err := nd.TrainIteration(); err != nil {
			t.Fatal(err)
		}
		if _, err := nd.Checkpoint(ctx, ckptTier, "demo"); err != nil {
			t.Fatal(err)
		}
	}

	// Tear rank 1's step-2 manifest: keep the key, truncate the JSON.
	key := checkpoint.ManifestKey(rankPrefix("demo", 1), 2)
	size, err := ckptTier.Size(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	if err := ckptTier.Read(ctx, key, buf); err != nil {
		t.Fatal(err)
	}
	if err := ckptTier.Write(ctx, key, buf[:size/2]); err != nil {
		t.Fatal(err)
	}

	step, err := nd.Resume(ctx, ckptTier, "demo")
	if err != nil {
		t.Fatal(err)
	}
	if step != 1 {
		t.Errorf("resumed at step %d, want rollback to 1 (step 2 torn on rank 1)", step)
	}

	// Tear rank 0's only remaining manifest too: nothing common survives.
	key0 := checkpoint.ManifestKey(rankPrefix("demo", 0), 1)
	if err := ckptTier.Write(ctx, key0, []byte(`{"formatVe`)); err != nil {
		t.Fatal(err)
	}
	key1 := checkpoint.ManifestKey(rankPrefix("demo", 0), 2)
	if err := ckptTier.Write(ctx, key1, []byte(`{`)); err != nil {
		t.Fatal(err)
	}
	if _, err := nd.Resume(ctx, ckptTier, "demo"); err == nil {
		t.Fatal("resume succeeded with every rank-0 manifest torn")
	}
}
