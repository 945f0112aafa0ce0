// Package checkpoint implements the checkpoint acceleration opportunity
// the paper describes at the end of §3.3, made restorable end to end.
//
// Because MLP-Offload's virtual third-level tier includes *persistent*
// storage (the PFS), the fraction of the optimizer state already resident
// there is pre-staged "for free" — a checkpoint only needs to flush the
// remainder (host-cached subgroups and those on non-persistent node-local
// NVMe), in the style of multi-tier asynchronous checkpointing engines
// such as DataStates-LLM.
//
// Pre-staged state must still be *versioned*: the live training object
// (rank…-sg….opt) is overwritten by the very next update phase, so a
// checkpoint that merely points at it goes stale immediately. At
// checkpoint time each pre-staged subgroup is therefore snapshotted into a
// step-tagged key on the same tier (a server-side copy, still far cheaper
// than re-writing host/NVMe state over the cross-tier path), and the
// Manifest records exactly which key on which tier holds every subgroup.
//
// The Manifest is the checkpoint's commit record: it is serialized and
// written to the checkpoint tier only after every data object (flushed and
// snapshotted alike) has landed — published, not fsynced: no tier path
// syncs (storage.FileTier.Write), so a checkpoint survives a process
// crash but not a power loss (ROADMAP item 9). A checkpoint without a
// landed manifest is not a checkpoint — the Reader discovers checkpoints exclusively through
// manifests, reads them back for the restore path (engine.Restore,
// train.Node.Resume), verifies that every referenced object is still
// present and intact, and prunes old checkpoints (manifest first) so
// retained storage stays bounded.
package checkpoint

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"github.com/datastates/mlpoffload/internal/aio"
	"github.com/datastates/mlpoffload/internal/optim"
	"github.com/datastates/mlpoffload/internal/storage"
)

// ManifestVersion is the serialized manifest format version.
const ManifestVersion = 1

// Location describes where one subgroup's state currently lives.
type Location struct {
	SubgroupID int
	// TierName is "" or "host" for host-resident state; otherwise a
	// storage tier name.
	TierName string
	// Key is the live training object's key on that tier ("" for
	// host-resident state). Live keys are overwritten by the next update
	// phase, which is why checkpoints snapshot them under step-tagged keys
	// instead of referencing them directly.
	Key string
	// Persistent reports whether that tier survives job teardown.
	Persistent bool
	// Bytes is the serialized state size.
	Bytes int64
}

// Plan partitions subgroups into already-persistent (pre-staged) and
// to-flush sets.
type Plan struct {
	PreStaged []Location
	ToFlush   []Location
}

// BuildPlan classifies the current placement.
func BuildPlan(locs []Location) Plan {
	var p Plan
	for _, l := range locs {
		if l.Persistent && l.TierName != "" && l.TierName != "host" {
			p.PreStaged = append(p.PreStaged, l)
		} else {
			p.ToFlush = append(p.ToFlush, l)
		}
	}
	return p
}

// PreStagedBytes returns the bytes that need no cross-tier I/O at
// checkpoint time (they are versioned by a same-tier snapshot copy).
func (p Plan) PreStagedBytes() int64 {
	var n int64
	for _, l := range p.PreStaged {
		n += l.Bytes
	}
	return n
}

// FlushBytes returns the bytes the checkpoint must still write.
func (p Plan) FlushBytes() int64 {
	var n int64
	for _, l := range p.ToFlush {
		n += l.Bytes
	}
	return n
}

// Savings returns the fraction of checkpoint I/O avoided by pre-staging.
func (p Plan) Savings() float64 {
	total := p.PreStagedBytes() + p.FlushBytes()
	if total == 0 {
		return 0
	}
	return float64(p.PreStagedBytes()) / float64(total)
}

// ObjectKey returns the checkpoint-tier object key for a flushed subgroup.
func ObjectKey(prefix string, step, sg int) string {
	return fmt.Sprintf("%s-step%06d-sg%05d.ckpt", prefix, step, sg)
}

// SnapshotKey returns the step-tagged key a pre-staged subgroup is
// snapshotted under on its own (persistent) tier.
func SnapshotKey(prefix string, step, sg int) string {
	return fmt.Sprintf("%s-step%06d-sg%05d.snap", prefix, step, sg)
}

// ManifestKey returns the checkpoint-tier key of the step's manifest.
func ManifestKey(prefix string, step int) string {
	return fmt.Sprintf("%s-step%06d.manifest", prefix, step)
}

// Writer flushes the ToFlush set of a plan to a persistent checkpoint
// tier asynchronously and commits manifests.
type Writer struct {
	engine *aio.Engine
	prefix string
}

// NewWriter creates a checkpoint writer over a persistent tier.
func NewWriter(tier storage.Tier, prefix string) *Writer {
	return &Writer{
		engine: aio.New(tier, aio.Config{Workers: 2, QueueDepth: 32}),
		prefix: prefix,
	}
}

// Prefix returns the writer's key prefix.
func (w *Writer) Prefix() string { return w.prefix }

// Tier returns the checkpoint tier the writer targets (manifest codec
// recording inspects it).
func (w *Writer) Tier() storage.Tier { return w.engine.Tier() }

// Fetcher retrieves a subgroup's serialized state for checkpointing (the
// engine supplies host-resident bytes or reads them back from a tier).
type Fetcher func(ctx context.Context, sg int) ([]byte, error)

// Release is invoked exactly once per buffer a Fetcher handed to Write,
// as soon as the buffer's write completes (or immediately if submission
// failed). It lets the caller bound checkpoint staging memory: the whole
// shard's optimizer state is, by this engine's premise, larger than host
// memory, so a checkpoint must never hold more than a small window of
// serialized subgroups at once. Calls may come from concurrent goroutines
// — release must not depend on Write's control flow (in particular it
// must not block until Write returns), or the staging window deadlocks.
// nil disables the callback.
type Release func(buf []byte)

// Write checkpoints the plan's ToFlush set at the given step, fetching
// each subgroup's bytes via fetch and writing them asynchronously. It
// returns the number of bytes written.
//
// On failure every operation already submitted is still waited before
// Write returns, so no in-flight write (or the buffer it reads from)
// outlives the call; release is still invoked for every fetched buffer.
func (w *Writer) Write(ctx context.Context, step int, plan Plan, fetch Fetcher, release Release) (int64, error) {
	var firstErr error
	type inflight struct {
		op *aio.Op
		n  int
	}
	// Buffers are released the moment their write lands (not when Write
	// gets around to checking it), so the caller's staging bound never
	// waits on this loop; the queue keeps only ops and sizes for the
	// error/byte accounting, waited sequentially on this one goroutine.
	var q []inflight
	for _, loc := range plan.ToFlush {
		data, err := fetch(ctx, loc.SubgroupID)
		if err != nil {
			firstErr = fmt.Errorf("checkpoint: fetch subgroup %d: %w", loc.SubgroupID, err)
			break
		}
		op, err := w.engine.SubmitWriteClass(aio.Checkpoint, ObjectKey(w.prefix, step, loc.SubgroupID), data)
		if err != nil {
			if release != nil {
				release(data)
			}
			firstErr = fmt.Errorf("checkpoint: submit subgroup %d: %w", loc.SubgroupID, err)
			break
		}
		if release != nil {
			go func(op *aio.Op, buf []byte) {
				//mlpvet:allow aioop completion only gates the buffer release; the op is on q and its error is collected below
				_ = op.Wait()
				release(buf)
			}(op, data)
		}
		q = append(q, inflight{op, len(data)})
	}
	var written int64
	for _, f := range q {
		if err := f.op.Wait(); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		written += int64(f.n)
	}
	return written, firstErr
}

// WriteManifest serializes and synchronously writes the manifest — the
// checkpoint's commit record. Callers must only invoke it after every data
// object the manifest references has landed (published, not fsynced; see
// the package doc and ROADMAP item 9).
func (w *Writer) WriteManifest(m Manifest) error {
	data, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("checkpoint: marshal manifest: %w", err)
	}
	if err := w.engine.WriteSync(ManifestKey(w.prefix, m.Step), data); err != nil {
		return fmt.Errorf("checkpoint: write manifest step %d: %w", m.Step, err)
	}
	return nil
}

// Entry records where one subgroup's checkpointed bytes live.
type Entry struct {
	SubgroupID int `json:"sg"`
	// Tier is "" for objects written to the checkpoint tier; otherwise
	// the name of the persistent training tier holding the snapshot.
	Tier string `json:"tier,omitempty"`
	// Key is the step-tagged object key (never a live training key).
	Key   string `json:"key"`
	Bytes int64  `json:"bytes"`
	// PreStaged marks subgroups satisfied by a same-tier snapshot of
	// already-persistent state rather than a cross-tier flush.
	PreStaged bool `json:"preStaged,omitempty"`
	// Origin is where the live state resided at checkpoint time ("host"
	// or a tier name) — used to rebuild host-cache residency on restore.
	Origin string `json:"origin,omitempty"`
}

// Numerics records the training-numerics configuration a checkpoint was
// taken under. Restore refuses a mismatch: resuming under a different
// engine mode, accumulation depth, or optimizer hyperparameters would
// silently diverge from both the interrupted and an uninterrupted run.
// (Placement, caching and I/O knobs are deliberately absent — they are
// performance-only and may change freely across a restart.)
type Numerics struct {
	Order          string  `json:"order"`
	SkipGradFlush  bool    `json:"skipGradFlush"`
	LossScaling    bool    `json:"lossScaling"`
	GradAccumSteps int     `json:"gradAccumSteps"`
	ClipNorm       float64 `json:"clipNorm,omitempty"`
	LR             float64 `json:"lr"`
	Beta1          float64 `json:"beta1"`
	Beta2          float64 `json:"beta2"`
	Eps            float64 `json:"eps"`
	WeightDecay    float64 `json:"weightDecay,omitempty"`
}

// Manifest is a checkpoint's commit record: the step, the full
// subgroup→object map, the shard geometry, and the optimizer-progress
// state a restore needs to continue training bit-identically.
type Manifest struct {
	FormatVersion int `json:"version"`
	// Step is the caller's checkpoint step (training iterations
	// completed at this boundary); it tags every object key.
	Step int `json:"step"`
	Rank int `json:"rank"`
	// Params and SubgroupParams are the shard geometry; restore rejects
	// manifests that do not match the engine's configuration.
	Params         int64 `json:"params"`
	SubgroupParams int64 `json:"subgroupParams"`
	// AdamStep is the number of optimizer steps applied (Adam bias
	// correction depends on it).
	AdamStep int `json:"adamStep"`
	// Phase is the number of completed update phases (the alternating
	// update-order position).
	Phase        int                `json:"phase"`
	SkippedSteps int64              `json:"skippedSteps,omitempty"`
	Scaler       *optim.ScalerState `json:"scaler,omitempty"`
	Numerics     Numerics           `json:"numerics"`
	// TierCodecs records, per tier name (training tiers and the
	// checkpoint tier), the codec middleware active when the checkpoint
	// was written ("" = none). Objects are self-describing, so restore
	// works under *any* codec configuration as long as the tier is
	// codec-wrapped at all — Restore uses this map to reject the one
	// combination that cannot work (encoded objects behind a codec-less
	// tier, or raw objects behind a codec tier) with a clear error
	// instead of a size mismatch or bad-magic failure mid-restore.
	// nil on manifests from versions without codec support (no check).
	TierCodecs map[string]string `json:"tierCodecs,omitempty"`
	Entries    []Entry           `json:"entries"`
}

// BuildManifest derives the subgroup→object map from a plan: flushed
// subgroups point at checkpoint-tier objects, pre-staged subgroups at
// their step-tagged same-tier snapshots. Callers fill the geometry and
// optimizer-progress fields before committing.
func BuildManifest(step int, p Plan, prefix string) Manifest {
	m := Manifest{FormatVersion: ManifestVersion, Step: step}
	for _, l := range p.ToFlush {
		m.Entries = append(m.Entries, Entry{
			SubgroupID: l.SubgroupID,
			Key:        ObjectKey(prefix, step, l.SubgroupID),
			Bytes:      l.Bytes,
			Origin:     l.TierName,
		})
	}
	for _, l := range p.PreStaged {
		m.Entries = append(m.Entries, Entry{
			SubgroupID: l.SubgroupID,
			Tier:       l.TierName,
			Key:        SnapshotKey(prefix, step, l.SubgroupID),
			Bytes:      l.Bytes,
			PreStaged:  true,
			Origin:     l.TierName,
		})
	}
	sort.Slice(m.Entries, func(i, j int) bool {
		return m.Entries[i].SubgroupID < m.Entries[j].SubgroupID
	})
	return m
}

// Entry returns the entry for a subgroup.
func (m Manifest) Entry(sg int) (Entry, bool) {
	i := sort.Search(len(m.Entries), func(i int) bool {
		return m.Entries[i].SubgroupID >= sg
	})
	if i < len(m.Entries) && m.Entries[i].SubgroupID == sg {
		return m.Entries[i], true
	}
	return Entry{}, false
}

// Savings returns the fraction of checkpoint bytes satisfied by
// pre-staged snapshots instead of cross-tier flushes.
func (m Manifest) Savings() float64 {
	var pre, total int64
	for _, e := range m.Entries {
		total += e.Bytes
		if e.PreStaged {
			pre += e.Bytes
		}
	}
	if total == 0 {
		return 0
	}
	return float64(pre) / float64(total)
}

// Validate performs structural checks: known format version and exactly
// one entry per subgroup, sorted by ID.
func (m Manifest) Validate() error {
	if m.FormatVersion != ManifestVersion {
		return fmt.Errorf("checkpoint: unsupported manifest version %d", m.FormatVersion)
	}
	for i, e := range m.Entries {
		if e.SubgroupID != i {
			return fmt.Errorf("checkpoint: manifest entries not dense at index %d (subgroup %d)", i, e.SubgroupID)
		}
		if e.Key == "" {
			return fmt.Errorf("checkpoint: subgroup %d has an empty object key", i)
		}
		if e.Bytes <= 0 {
			return fmt.Errorf("checkpoint: subgroup %d has size %d", i, e.Bytes)
		}
	}
	return nil
}

// Close shuts down the writer.
func (w *Writer) Close() { w.engine.Close() }
