package engine

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/datastates/mlpoffload/internal/checkpoint"
	"github.com/datastates/mlpoffload/internal/storage"
	"github.com/datastates/mlpoffload/internal/tiercodec"
)

// TestNewRestoredFromLegacyFlateCheckpoint: testdata/ckpt-id1 is what the
// commit before the plane-split writer left behind after three iterations
// and a step-3 checkpoint of the configuration below (file tiers under
// flate+crc; the volatile nvme directory lost): every object in it is
// codec id 1, whole-object transpose + DEFLATE. An engine built today
// restores from it and continues to exactly the parameters of an engine
// that never stopped.
func TestNewRestoredFromLegacyFlateCheckpoint(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "ckpt-id1"))); err != nil {
		t.Fatal(err)
	}
	legacy := 0
	for _, name := range []string{"pfs", "ckpt"} {
		entries, err := os.ReadDir(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		for _, ent := range entries {
			obj, err := os.ReadFile(filepath.Join(dir, name, ent.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if obj[5] == tiercodec.CodecFlate {
				legacy++
			}
		}
	}
	if legacy < 12 {
		t.Fatalf("test data holds %d codec-id-1 objects, want the whole checkpoint", legacy)
	}

	fileTier := func(name string) storage.Tier {
		ft, err := storage.NewFileTier(name, filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ft.Close() })
		return ft
	}
	mkCfg := func(nvme, pfs storage.Tier, codec tiercodec.Spec) Config {
		cfg := MLPConfig(0, 3600, 300, []TierSpec{
			{Tier: nvme, ReadBW: 500, WriteBW: 500, Codec: codec},
			{Tier: pfs, ReadBW: 300, WriteBW: 300, Persistent: true, Codec: codec},
		}, nil)
		cfg.AdaptivePlacement = false
		cfg.Grad = QuadraticGradFn(3)
		cfg.InitParams = func(i int64) float32 { return float32(math.Sin(float64(i)*12.9898) * 0.5) }
		return cfg
	}

	ref, err := New(mkCfg(storage.NewMemTier("nvme"), storage.NewMemTier("pfs"), tiercodec.Spec{}))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	trainRange(t, ref, 0, 6)
	want := gather(t, ref)

	ck, err := tiercodec.New(fileTier("ckpt"), codecSpec)
	if err != nil {
		t.Fatal(err)
	}
	r := checkpoint.NewReader(ck, "run")
	m, err := r.ReadManifest(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewRestored(ctx, mkCfg(fileTier("nvme"), fileTier("pfs"), codecSpec), r, m)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	trainRange(t, e, 3, 6)
	got := gather(t, e)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("param %d after restoring the legacy checkpoint: %v, want %v", i, got[i], want[i])
		}
	}
}
