package engine

//mlpvet:allowfile clockcheck time.After here is a liveness timeout guard, not measured time

import (
	"errors"
	"testing"
	"time"

	"github.com/datastates/mlpoffload/internal/storage"
)

// TestAdoptedStateSurvivesTransientFaults guards the fetch-pool
// ownership discipline of the zero-copy path: when an item fails
// *after* its state was adopted over the pooled fetch buffer (a
// gradient-read fault on the baseline path, a flush-submit fault on the
// eviction path), the buffer must return to the pool. Before the
// dropState release was added, every such failure leaked one buffer
// from the bounded pool and a handful of transient faults stalled
// training forever in fetchPool.Get — this test would time out.
func TestAdoptedStateSurvivesTransientFaults(t *testing.T) {
	for _, mode := range []struct {
		name              string
		reads, writes     bool
		skipGradFlush     bool
		every             int64
		wantTrainFailures bool
	}{
		// Baseline path: periodic read faults hit gradient fetches of
		// subgroups whose state already adopted its buffer.
		{name: "grad-read-faults", reads: true, every: 5},
		// Eviction path: periodic write faults hit flushes of adopted
		// buffers (WriteSync during init may trip too; retried below).
		{name: "flush-write-faults", writes: true, skipGradFlush: true, every: 7},
	} {
		t.Run(mode.name, func(t *testing.T) {
			boom := errors.New("transient tier fault")
			tier := &storage.FaultTier{
				Tier:       storage.NewMemTier("flaky"),
				Err:        boom,
				FailReads:  mode.reads,
				FailWrites: mode.writes,
			}
			cfg := BaselineConfig(0, 1200, 60, []TierSpec{{Tier: tier, ReadBW: 1e6, WriteBW: 1e6}})
			cfg.SkipGradFlush = mode.skipGradFlush
			cfg.UpdateWorkers = 2
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			// Arm the injector only after the initial offload.
			tier.SetFailEvery(mode.every)

			// Drive many iterations through repeated failures. Liveness:
			// progress must continue (a permanently leaking pool stalls
			// the issuer in fetchPool.Get).
			done := make(chan struct{})
			go func() {
				defer close(done)
				failures := 0
				for i := 0; i < 40; i++ {
					if _, err := e.TrainIteration(i); err != nil {
						if !errors.Is(err, boom) {
							t.Errorf("unexpected error: %v", err)
							return
						}
						failures++
					}
				}
				if failures == 0 {
					t.Error("fault injection never fired; test exercised nothing")
				}
			}()
			select {
			case <-done:
			case <-time.After(60 * time.Second):
				t.Fatal("training stalled: adopted fetch-pool buffers leaked on failed items")
			}

			// Exact pool accounting: disarm the injector, quiesce, and
			// check every fetch-pool buffer is either available or
			// held by exactly one host-resident adopted state. Any
			// error path that dropped an adopted buffer without
			// returning it (or double-returned one) breaks the
			// equation.
			// Grad-flush goroutines from the last iterations may still be
			// in flight; the locked setter keeps the disarm race-free.
			tier.SetFailEvery(0)
			e.Drain()
			quota := (e.prefetchDepth + cfg.UpdateWorkers) + e.Subgroups() + 2
			if slots := cfg.HostCacheSlots; slots < e.Subgroups() {
				quota = (e.prefetchDepth + cfg.UpdateWorkers) + slots + 2
			}
			held := 0
			for _, sg := range e.shard.Subgroups {
				if sg.Backing != nil {
					held++
				}
			}
			if free := e.fetchPool.Free(); free+held != quota {
				t.Fatalf("fetch-pool accounting broken: free %d + held-by-residents %d != quota %d (leaked %d)",
					free, held, quota, quota-free-held)
			}
		})
	}
}
