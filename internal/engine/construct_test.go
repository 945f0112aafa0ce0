package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"github.com/datastates/mlpoffload/internal/checkpoint"
	"github.com/datastates/mlpoffload/internal/fp16"
	"github.com/datastates/mlpoffload/internal/storage"
	"github.com/datastates/mlpoffload/internal/subgroup"
	"github.com/datastates/mlpoffload/internal/tiercodec"
)

// sinInit is a non-trivial InitParams: every parameter differs, so a
// misplaced or misordered section shows in the bytes.
func sinInit(i int64) float32 { return float32(math.Sin(float64(i)*0.37)) * 0.5 }

// constructionCases are the engine shapes construction must hold its
// contracts for: MLP-Offload over two tiers, the ZeRO-3-shaped baseline
// over one, and MLP-Offload with a codec on every tier.
var constructionCases = []struct {
	name  string
	codec tiercodec.Spec
	mk    func(params, sub int64, tiers []TierSpec) Config
}{
	{"mlp", tiercodec.Spec{}, func(params, sub int64, tiers []TierSpec) Config {
		return MLPConfig(0, params, sub, tiers, nil)
	}},
	{"baseline", tiercodec.Spec{}, func(params, sub int64, tiers []TierSpec) Config {
		return BaselineConfig(0, params, sub, tiers[:1])
	}},
	{"mlp-codec", codecSpec, func(params, sub int64, tiers []TierSpec) Config {
		return MLPConfig(0, params, sub, tiers, nil)
	}},
}

// TestConstructionMemoryContract: New streams the shard's optimizer
// state to the tiers instead of building it in host memory, so its
// allocation grows by the FP16 working copy and the FP16 gradient
// buffers (2 + 2 B/param) per added parameter, never by the 12 B/param
// FP32 state. Building the whole shard first cost ~20 B/param. The
// buffer pools cost a bounded number of objects, which the two shards
// need not fill alike; many small objects keep each one a small share of
// the difference.
func TestConstructionMemoryContract(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is inflated under -race")
	}
	if testing.Short() {
		t.Skip("constructs shards of 6M parameters")
	}
	const (
		sub         = 6 * 4096 // FP16 buffers of whole 8 KiB pages: no size-class rounding
		small       = 48
		large       = 272
		maxPerParam = 5.0
	)
	for _, tc := range constructionCases {
		t.Run(tc.name, func(t *testing.T) {
			// No collection while the shards are built: a GC empties the
			// sync.Pool behind internal/bufpool, and the codec would re-make
			// its staging buffers inside a measured window. The first,
			// unmeasured construction fills that pool to the codec's
			// concurrency.
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			alloc := func(subgroups int) uint64 {
				tiers := fileTiers(t, 2e9, 1e9)
				for i := range tiers {
					tiers[i].Codec = tc.codec
					defer os.RemoveAll(tiers[i].Tier.(*storage.FileTier).Dir())
				}
				cfg := tc.mk(int64(subgroups)*sub, sub, tiers)
				cfg.InitParams = sinInit
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				e, err := New(cfg)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				e.Close()
				return after.TotalAlloc - before.TotalAlloc
			}
			alloc(large)
			a, b := alloc(small), alloc(large)
			perParam := (float64(b) - float64(a)) / float64((large-small)*sub)
			t.Logf("New allocated %d B for %d subgroups, %d B for %d: %.2f B per added parameter",
				a, small, b, large, perParam)
			if perParam > maxPerParam {
				t.Errorf("New allocates %.2f B per added parameter, contract is <= %.0f (FP16 copies only)", perParam, maxPerParam)
			}
		})
	}
}

// TestConstructionWritesReferenceObjects: the objects New writes are
// byte-identical — on the device, codec included — to serializing a
// freshly initialized subgroup (subgroup.New, InitParams, Marshal), each
// lives on exactly its planned tier, no state stays in host memory, and
// the FP16 working copy is the encoding of the same parameters. So
// checkpoints and stored objects do not depend on how construction
// builds them.
func TestConstructionWritesReferenceObjects(t *testing.T) {
	ctx := context.Background()
	for _, tc := range constructionCases {
		for _, init := range []func(int64) float32{sinInit, nil} {
			name := tc.name + "/init"
			if init == nil {
				name = tc.name + "/zeros"
			}
			t.Run(name, func(t *testing.T) {
				tiers := memTiers(2e9, 1e9)
				for i := range tiers {
					tiers[i].Codec = tc.codec
				}
				cfg := tc.mk(1050, 100, tiers)
				cfg.InitParams = init
				e, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				for i, sg := range e.shard.Subgroups {
					if sg.State != nil {
						t.Fatalf("subgroup %d: optimizer state left in host memory", i)
					}
					ref := subgroup.New(i, sg.Len())
					off := e.sgOffset[i]
					if init != nil {
						for j := range ref.State.Params {
							ref.State.Params[j] = init(off + int64(j))
						}
					}
					obj := make([]byte, subgroup.StateBytes(sg.Len()))
					if _, err := ref.Marshal(obj, false); err != nil {
						t.Fatal(err)
					}
					want := deviceBytes(t, tc.codec, e.key(i), obj)
					if home := e.plan.TierFor(i); e.loc[i] != home {
						t.Fatalf("subgroup %d on tier %d, planned %d", i, e.loc[i], home)
					}
					for ti, st := range e.stat {
						got, err := storage.ReadWholeObject(ctx, st, e.key(i))
						if ti != e.loc[i] {
							if err == nil {
								t.Fatalf("subgroup %d: a second object on tier %d", i, ti)
							}
							continue
						}
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(got, want) {
							t.Fatalf("subgroup %d: stored object differs from the reference serialization", i)
						}
					}
					h := make([]fp16.Bits, sg.Len())
					fp16.Encode(h, ref.State.Params)
					for j, v := range h {
						if e.params16[off+int64(j)] != v {
							t.Fatalf("params16[%d] = %#x, want %#x", off+int64(j), e.params16[off+int64(j)], v)
						}
					}
				}
			})
		}
	}
}

// deviceBytes returns obj as a tier with the codec spec stores it.
func deviceBytes(t *testing.T, spec tiercodec.Spec, key string, obj []byte) []byte {
	t.Helper()
	ctx := context.Background()
	raw := storage.NewMemTier("ref")
	var w storage.Tier = raw
	if spec.Enabled() {
		ct, err := tiercodec.New(raw, spec)
		if err != nil {
			t.Fatal(err)
		}
		w = ct
	}
	if err := w.Write(ctx, key, obj); err != nil {
		t.Fatal(err)
	}
	out, err := storage.ReadWholeObject(ctx, raw, key)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// writeCountingTier counts the writes of each key that reach its tier.
type writeCountingTier struct {
	storage.Tier
	mu     sync.Mutex
	writes map[string]int
}

func (c *writeCountingTier) Write(ctx context.Context, key string, src []byte) error {
	c.mu.Lock()
	c.writes[key]++
	c.mu.Unlock()
	return c.Tier.Write(ctx, key, src)
}

// TestNewRestoredWritesEachObjectOnce: NewRestored skips New's initial
// offload, because Restore writes every offloaded subgroup's live key
// anyway — so adopting a shard writes each offloaded object exactly once
// and a host-origin one not at all, and the adopted state is the
// checkpointed one.
func TestNewRestoredWritesEachObjectOnce(t *testing.T) {
	ctx := context.Background()
	shared := storage.NewMemTier("pfs") // the persistent tier both ranks reach
	mkCfg := func(nvme, pfs storage.Tier) Config {
		tiers := []TierSpec{
			{Tier: nvme, ReadBW: 2e9, WriteBW: 2e9},
			{Tier: pfs, ReadBW: 1e9, WriteBW: 1e9, Persistent: true},
		}
		cfg := MLPConfig(7, 1200, 100, tiers, nil)
		cfg.AdaptivePlacement = false
		cfg.Grad = QuadraticGradFn(3)
		return cfg
	}
	dead, err := New(mkCfg(storage.NewMemTier("nvme"), shared))
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
	want := gather(t, dead)
	dead.Close()

	nvme := &writeCountingTier{Tier: storage.NewMemTier("nvme"), writes: map[string]int{}}
	pfs := &writeCountingTier{Tier: shared, writes: map[string]int{}}
	adopted, err := NewRestored(ctx, mkCfg(nvme, pfs), checkpoint.NewReader(ckptTier, "run-rank007"), m)
	if err != nil {
		t.Fatal(err)
	}
	defer adopted.Close()
	offloaded := 0
	for _, ent := range m.Entries {
		key := subgroup.Key(7, ent.SubgroupID)
		wantWrites := 1
		if ent.Origin == "host" {
			wantWrites = 0
		} else {
			offloaded++
		}
		if got := nvme.writes[key] + pfs.writes[key]; got != wantWrites {
			t.Errorf("subgroup %d (origin %q): %d live-key writes, want %d", ent.SubgroupID, ent.Origin, got, wantWrites)
		}
	}
	if offloaded == 0 || offloaded == len(m.Entries) {
		t.Fatalf("%d of %d entries offloaded: the manifest covers only one restore path", offloaded, len(m.Entries))
	}
	got := gather(t, adopted)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("param %d after adoption: %v, want %v", i, got[i], want[i])
		}
	}
}

// TestInitialOffloadFailureIsClean: a tier that refuses the k-th initial
// write fails New with that error, and New leaves nothing behind — every
// submitted write has finished (the tier holds exactly the objects that
// were accepted, and no temporary file), no engine goroutine runs, and
// every fetch-pool buffer is back in the pool.
func TestInitialOffloadFailureIsClean(t *testing.T) {
	const subgroups = 8
	boom := errors.New("initial write refused")
	for _, k := range []int64{1, 3, subgroups} {
		t.Run(fmt.Sprintf("fail-write-%d", k), func(t *testing.T) {
			setup := func() (Config, string) {
				dir := t.TempDir()
				ft, err := storage.NewFileTier("nvme", dir)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { ft.Close() })
				fault := &storage.FaultTier{Tier: ft, Err: boom, FailWrites: true, FailEvery: k}
				cfg := BaselineConfig(0, subgroups*1000, 1000, []TierSpec{{Tier: fault, ReadBW: 1e9, WriteBW: 1e9}})
				cfg.InitParams = sinInit
				return cfg, dir
			}

			cfg, dir := setup()
			goroutines := runtime.NumGoroutine()
			e, err := New(cfg)
			if !errors.Is(err, boom) || e != nil {
				t.Fatalf("New = %v, %v; want a nil engine and the tier's error", e, err)
			}
			for i := 0; runtime.NumGoroutine() > goroutines; i++ {
				if i == 1_000_000 {
					t.Fatalf("goroutines: %d before New, %d after it failed", goroutines, runtime.NumGoroutine())
				}
				runtime.Gosched() // Close waited them; let them exit
			}
			files, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			objects := 0
			for _, f := range files {
				if strings.HasSuffix(f.Name(), ".tmp") {
					t.Errorf("temporary file %s left behind", f.Name())
				}
				if filepath.Ext(f.Name()) == ".opt" {
					objects++
				}
			}
			if want := subgroups - subgroups/int(k); objects != want {
				t.Errorf("%d objects stored, want the %d writes the tier accepted", objects, want)
			}

			// The same failure through New's two steps, with the pool in
			// reach: Close returns every buffer the writes held.
			cfg, _ = setup()
			e, err = newEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.initialOffload(); !errors.Is(err, boom) {
				t.Fatalf("initialOffload = %v, want the tier's error", err)
			}
			e.Close()
			quota := e.prefetchDepth + e.cfg.UpdateWorkers + min(e.cfg.HostCacheSlots, subgroups) + 2
			if free := e.fetchPool.Free(); free != quota {
				t.Fatalf("fetch pool: %d of %d buffers back after a failed initial offload", free, quota)
			}
		})
	}
}
