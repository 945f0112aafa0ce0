package engine

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/datastates/mlpoffload/internal/checkpoint"
	"github.com/datastates/mlpoffload/internal/metrics"
	"github.com/datastates/mlpoffload/internal/storage"
	"github.com/datastates/mlpoffload/internal/tiercodec"
	"github.com/datastates/mlpoffload/internal/tierlock"
)

// codecSpec is the recommended middleware configuration the tests run
// under: compression plus integrity.
var codecSpec = tiercodec.Spec{Compression: "flate", Integrity: true}

// withCodec returns a copy of specs with the codec enabled on every tier.
func withCodec(specs []TierSpec, spec tiercodec.Spec) []TierSpec {
	out := append([]TierSpec(nil), specs...)
	for i := range out {
		out[i].Codec = spec
	}
	return out
}

// TestCodecBitIdenticalTraining: the codec is a transport optimization
// only — training with per-tier compression+integrity enabled must
// produce bit-identical parameters to training without it, on the MLP
// path (sequential and parallel workers) and on the baseline path (whose
// FP32 gradient objects cross the codec as well).
func TestCodecBitIdenticalTraining(t *testing.T) {
	cases := []struct {
		name    string
		workers int
		mk      func() Config
	}{
		{"mlp", 1, func() Config {
			return MLPConfig(0, 1100, 100, memTiers(500, 300), tierlock.NewManager(true))
		}},
		{"mlp-4-workers", 4, func() Config {
			return MLPConfig(0, 1100, 100, memTiers(500, 300), tierlock.NewManager(true))
		}},
		{"baseline", 1, func() Config {
			return BaselineConfig(0, 1100, 100, memTiers(500))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mk := func(codec bool) []float32 {
				cfg := tc.mk()
				cfg.AdaptivePlacement = false // same placement for every run
				cfg.UpdateWorkers = tc.workers
				if codec {
					cfg.Tiers = withCodec(cfg.Tiers, codecSpec)
				}
				return gatherAfter(t, cfg, 5)
			}
			plain, compressed := mk(false), mk(true)
			for i := range plain {
				if plain[i] != compressed[i] {
					t.Fatalf("param %d differs with codec on: %v vs %v", i, compressed[i], plain[i])
				}
			}
		})
	}
}

// TestCodecWireAccounting: with compression enabled the iteration metrics
// must report fewer wire bytes than raw bytes, the estimator keeps
// functioning (placement still splits), and CompressionRatio > 1.
func TestCodecWireAccounting(t *testing.T) {
	cfg := MLPConfig(0, 4000, 400, withCodec(memTiers(500, 300), codecSpec), nil)
	cfg.AdaptivePlacement = false
	// A convergent objective produces clustered optimizer state — the
	// distribution compression exists for; the pseudo-random default
	// gradient generator is a worst case the bypass handles instead.
	cfg.Grad = QuadraticGradFn(3)
	cfg.Hyper.LR = 0.02
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var last metrics.Iteration
	for i := 0; i < 4; i++ {
		it, err := e.TrainIteration(i)
		if err != nil {
			t.Fatal(err)
		}
		last = it
	}
	if last.BytesRead <= 0 || last.WireBytesRead <= 0 {
		t.Fatalf("no read accounting: %+v", last)
	}
	if last.WireBytesRead >= last.BytesRead {
		t.Fatalf("wire reads %.0f not below raw %.0f — codec not on the wire path",
			last.WireBytesRead, last.BytesRead)
	}
	if r := last.CompressionRatio(); r <= 1.0 {
		t.Fatalf("compression ratio %.3f, want > 1", r)
	}
	for class, c := range last.ClassIO {
		// Wire bytes are recorded per class; an incompressible object may
		// exceed its raw size by one header, never more.
		if c.WireBytes <= 0 || c.WireBytes > c.Bytes+float64(c.Ops*tiercodec.HeaderSize) {
			t.Fatalf("class %s wire accounting inconsistent: %+v", class, c)
		}
	}
}

// TestCodecResumeAcrossCodecChange: a checkpoint written under one codec
// restores bit-identically under a *different* codec (objects are
// self-describing), including the pre-staged snapshots on the persistent
// tier. The continued run must match an uninterrupted codec-less run.
func TestCodecResumeAcrossCodecChange(t *testing.T) {
	const (
		params = 600
		sub    = 100
		k      = 3
		n      = 6
	)
	mk := func(p storage.Tier, spec tiercodec.Spec) Config {
		tiers := []TierSpec{
			{Tier: storage.NewMemTier("nvme"), ReadBW: 690, WriteBW: 530},
			{Tier: p, ReadBW: 360, WriteBW: 360, Persistent: true},
		}
		cfg := MLPConfig(0, params, sub, withCodec(tiers, spec), nil)
		cfg.AdaptivePlacement = false
		cfg.Grad = QuadraticGradFn(3)
		cfg.Hyper.LR = 0.02
		return cfg
	}

	// Uninterrupted reference without any codec.
	ref, err := New(mk(storage.NewMemTier("pfs"), tiercodec.Spec{}))
	if err != nil {
		t.Fatal(err)
	}
	trainRange(t, ref, 0, n)
	want := gather(t, ref)
	ref.Close()

	// Interrupted run under flate+crc; the checkpoint tier is wrapped too.
	writeSpec := codecSpec
	pfs := storage.NewMemTier("pfs") // persistent backing store, survives
	e1, err := New(mk(pfs, writeSpec))
	if err != nil {
		t.Fatal(err)
	}
	trainRange(t, e1, 0, k)
	ckptBacking := storage.NewMemTier("ckpt")
	ckptW, err := tiercodec.New(ckptBacking, writeSpec)
	if err != nil {
		t.Fatal(err)
	}
	w := checkpoint.NewWriter(ckptW, "run")
	m, err := e1.Checkpoint(context.Background(), k, w)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if m.TierCodecs["pfs"] != writeSpec.String() || m.TierCodecs["ckpt"] != writeSpec.String() {
		t.Fatalf("manifest did not record tier codecs: %+v", m.TierCodecs)
	}
	// Verify through the engine's wrapped handles: sizes are raw.
	r := checkpoint.NewReader(ckptW, "run")
	if err := r.Verify(context.Background(), m, e1.TierHandle); err != nil {
		t.Fatal(err)
	}
	e1.Close()

	// Restart under a different codec: integrity-only middleware. The
	// stored flate objects must decode through it transparently.
	readSpec := tiercodec.Spec{Integrity: true}
	e2, err := New(mk(pfs, readSpec))
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	ckptR, err := tiercodec.New(ckptBacking, readSpec)
	if err != nil {
		t.Fatal(err)
	}
	restoreLatest(t, e2, checkpoint.NewReader(ckptR, "run"))
	trainRange(t, e2, k, n)
	got := gather(t, e2)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("param %d differs after cross-codec resume: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestCodecManifestTierNameCollision: when the checkpoint writer is
// handed the *raw* handle of a tier the engine codec-wraps (same name),
// the manifest must keep the engine's codec record for that name — the
// authoritative one for Restore's presence check — instead of letting
// the writer's codec-less view overwrite it and falsely reject the very
// configuration that wrote the checkpoint.
func TestCodecManifestTierNameCollision(t *testing.T) {
	pfs := storage.NewMemTier("pfs")
	mk := func() Config {
		tiers := []TierSpec{{Tier: pfs, ReadBW: 500, WriteBW: 500, Persistent: true, Codec: codecSpec}}
		cfg := MLPConfig(0, 400, 100, tiers, nil)
		cfg.AdaptivePlacement = false
		return cfg
	}
	e1, err := New(mk())
	if err != nil {
		t.Fatal(err)
	}
	trainRange(t, e1, 0, 2)
	w := checkpoint.NewWriter(pfs, "run") // raw handle, same tier name
	defer w.Close()
	m, err := e1.Checkpoint(context.Background(), 2, w)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.TierCodecs["pfs"]; got != codecSpec.String() {
		t.Fatalf("manifest records pfs codec %q, want the engine's %q", got, codecSpec.String())
	}
	e1.Close()

	e2, err := New(mk())
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if err := e2.Restore(context.Background(), checkpoint.NewReader(pfs, "run"), m); err != nil {
		t.Fatalf("restore under the writing configuration rejected: %v", err)
	}
}

// TestCodecRestoreRejectsPresenceMismatch: a checkpoint whose tiers were
// codec-wrapped must not restore into an engine whose tiers are not (and
// the error names the codec, not a size mismatch deep in the restore).
func TestCodecRestoreRejectsPresenceMismatch(t *testing.T) {
	const params, sub = 400, 100
	mk := func(p storage.Tier, spec tiercodec.Spec) Config {
		tiers := []TierSpec{
			{Tier: storage.NewMemTier("nvme"), ReadBW: 690, WriteBW: 530},
			{Tier: p, ReadBW: 360, WriteBW: 360, Persistent: true},
		}
		cfg := MLPConfig(0, params, sub, withCodec(tiers, spec), nil)
		cfg.AdaptivePlacement = false
		return cfg
	}
	pfs := storage.NewMemTier("pfs")
	e1, err := New(mk(pfs, codecSpec))
	if err != nil {
		t.Fatal(err)
	}
	trainRange(t, e1, 0, 2)
	ckptTier := storage.NewMemTier("ckpt") // manifest itself stays readable
	w := checkpoint.NewWriter(ckptTier, "run")
	m, err := e1.Checkpoint(context.Background(), 2, w)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	e1.Close()

	e2, err := New(mk(pfs, tiercodec.Spec{})) // codec-less restart
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	err = e2.Restore(context.Background(), checkpoint.NewReader(ckptTier, "run"), m)
	if err == nil {
		t.Fatal("restore under codec-less tiers of an encoded checkpoint must fail")
	}
	if got := err.Error(); !strings.Contains(got, "codec") || !strings.Contains(got, "nvme") {
		t.Fatalf("error does not explain the codec mismatch: %v", err)
	}
}

// TestCodecMidConvergenceCheckpointRestore is the mid-convergence variant
// of the bit-identical guarantee with compression on: a bandwidth shift
// replans the split, a checkpoint records the subgroups it displaced
// still on their old tiers, and a fresh codec-wrapped engine restored
// from it continues bit-identically to an uninterrupted codec-less
// reference.
func TestCodecMidConvergenceCheckpointRestore(t *testing.T) {
	const (
		params = 2000
		sub    = 100
		shift  = 3 // iterations before the PFS slows down
		n      = 10
	)
	mk := func(tiers []TierSpec, spec tiercodec.Spec) Config {
		cfg := MLPConfig(0, params, sub, withCodec(tiers, spec), nil)
		cfg.Grad = QuadraticGradFn(3)
		cfg.Hyper.LR = 0.02
		return cfg
	}

	// Codec-less uninterrupted reference with the same bandwidth shift.
	refTiers, _, refPFS := throttledPair(2e6, 1e6)
	ref, err := New(mk(refTiers, tiercodec.Spec{}))
	if err != nil {
		t.Fatal(err)
	}
	trainRange(t, ref, 0, shift)
	refPFS.SetRates(1e5, 1e5)
	trainRange(t, ref, shift, n)
	want := gather(t, ref)
	ref.Close()

	// Codec-wrapped interrupted run: slow the PFS, let a replan displace
	// subgroups, checkpoint before evictions move them.
	tiers, _, pfs := throttledPair(2e6, 1e6)
	e1, err := New(mk(tiers, codecSpec))
	if err != nil {
		t.Fatal(err)
	}
	trainRange(t, e1, 0, shift)
	pfs.SetRates(1e5, 1e5)
	k := trainUntilMisplaced(t, e1, shift, n-1)
	ckptTier := storage.NewMemTier("ckpt")
	w := checkpoint.NewWriter(ckptTier, "rank000")
	defer w.Close()
	if _, err := e1.Checkpoint(context.Background(), k, w); err != nil {
		t.Fatal(err)
	}
	e1.Close()

	e2, err := New(mk(tiers, codecSpec))
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	restoreLatest(t, e2, checkpoint.NewReader(ckptTier, "rank000"))
	trainRange(t, e2, k, n)
	got := gather(t, e2)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("param %d diverged after codec mid-convergence resume: %v != %v", i, got[i], want[i])
		}
	}
	placementConsistent(t, e2)
}

// TestCodecTransientCorruptionRetried: corruption injected on the read
// path (in-flight bit flip under the codec) is detected by the CRC and
// absorbed by the engine's retry — training completes with the same
// parameters as an unfaulted run, and the retry is counted.
func TestCodecTransientCorruptionRetried(t *testing.T) {
	mk := func(fault *tiercodec.FaultTier) Config {
		inner := storage.Tier(storage.NewMemTier("nvme"))
		if fault != nil {
			inner = fault
		}
		tiers := []TierSpec{{Tier: inner, ReadBW: 500, WriteBW: 500, Codec: codecSpec}}
		cfg := MLPConfig(0, 800, 100, tiers, nil)
		cfg.AdaptivePlacement = false
		// Generous budget: a retry's own re-read can land on the shared
		// every-Nth fault counter again (see examples/faultinjection).
		cfg.CorruptRetries = 8
		return cfg
	}
	want := gatherAfter(t, mk(nil), 4)

	fault := tiercodec.NewFaultTier(storage.NewMemTier("nvme"), tiercodec.FaultConfig{
		CorruptReadEvery: 5, // every fifth read of encoded bytes is hit in flight
	})
	cfg := mk(fault)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 4; i++ {
		if _, err := e.TrainIteration(i); err != nil {
			t.Fatalf("iteration %d under transient corruption: %v", i, err)
		}
	}
	if e.IntegrityRetries() == 0 {
		t.Fatal("no integrity retries counted despite injected corruption")
	}
	got := gather(t, e)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("param %d differs under transient corruption: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestCodecTransientCorruptionCheckpointRestore: the corrupt-retry
// discipline covers the checkpoint staging reads and restore reads too —
// a transient flip under the codec must not fail a checkpoint or a
// restore that a re-read would complete.
func TestCodecTransientCorruptionCheckpointRestore(t *testing.T) {
	fault := tiercodec.NewFaultTier(storage.NewMemTier("pfs"), tiercodec.FaultConfig{
		CorruptReadEvery: 4,
	})
	tiers := []TierSpec{
		{Tier: storage.NewMemTier("nvme"), ReadBW: 690, WriteBW: 530, Codec: codecSpec},
		{Tier: fault, ReadBW: 360, WriteBW: 360, Persistent: true, Codec: codecSpec},
	}
	cfg := MLPConfig(0, 800, 100, tiers, nil)
	cfg.AdaptivePlacement = false
	cfg.Grad = QuadraticGradFn(3)
	cfg.CorruptRetries = 8 // see examples/faultinjection on the budget
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	trainRange(t, e, 0, 3)
	ckptTier := storage.NewMemTier("ckpt")
	w := checkpoint.NewWriter(ckptTier, "run")
	defer w.Close()
	if _, err := e.Checkpoint(context.Background(), 3, w); err != nil {
		t.Fatalf("checkpoint under transient corruption: %v", err)
	}
	restoreLatest(t, e, checkpoint.NewReader(ckptTier, "run"))
	trainRange(t, e, 3, 5)
	if e.IntegrityRetries() == 0 {
		t.Fatal("no integrity retries despite injected corruption")
	}
}

// TestCodecPersistentCorruptionFailsCleanly: corruption at rest keeps
// failing across retries; the phase must fail with ErrCorrupt — never
// consume garbage — and the error must be the typed one so callers can
// react.
func TestCodecPersistentCorruptionFailsCleanly(t *testing.T) {
	fault := tiercodec.NewFaultTier(storage.NewMemTier("nvme"), tiercodec.FaultConfig{
		CorruptWriteEvery: 3, // every third stored object is bit-rotted
	})
	tiers := []TierSpec{{Tier: fault, ReadBW: 500, WriteBW: 500, Codec: codecSpec}}
	cfg := MLPConfig(0, 800, 100, tiers, nil)
	cfg.AdaptivePlacement = false
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var iterErr error
	for i := 0; i < 6 && iterErr == nil; i++ {
		_, iterErr = e.TrainIteration(i)
	}
	if iterErr == nil {
		t.Fatal("training consumed persistently corrupted objects without failing")
	}
	if !errors.Is(iterErr, tiercodec.ErrCorrupt) {
		t.Fatalf("failure is %v, want ErrCorrupt", iterErr)
	}
}
