package checkpoint

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"

	"github.com/datastates/mlpoffload/internal/storage"
	"github.com/datastates/mlpoffload/internal/tiercodec"
)

// Reader is the restore side of the checkpoint package: it discovers
// committed checkpoints through their manifests on the checkpoint tier,
// deserializes them, and reads back checkpoint-tier objects. Entries that
// live on a named training tier (pre-staged snapshots) are read by the
// engine through its own tier handles.
type Reader struct {
	tier   storage.Tier
	prefix string
}

// NewReader creates a reader over the checkpoint tier with the same key
// prefix the Writer used.
func NewReader(tier storage.Tier, prefix string) *Reader {
	return &Reader{tier: tier, prefix: prefix}
}

// Steps lists the steps that have a committed manifest, ascending. A
// checkpoint whose data objects landed but whose manifest did not is
// invisible here — by design, it is not a checkpoint.
func (r *Reader) Steps(ctx context.Context) ([]int, error) {
	keys, err := r.tier.Keys(ctx)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: list manifests: %w", err)
	}
	var steps []int
	for _, k := range keys {
		if !strings.HasPrefix(k, r.prefix+"-step") || !strings.HasSuffix(k, ".manifest") {
			continue
		}
		var step int
		if _, err := fmt.Sscanf(k[len(r.prefix):], "-step%d.manifest", &step); err != nil {
			continue
		}
		steps = append(steps, step)
	}
	sort.Ints(steps)
	return steps, nil
}

// ValidSteps lists the steps whose manifest not only exists but reads,
// parses, and validates, ascending. Steps discovers manifests by key
// alone, so a torn manifest — truncated JSON from a rank that died
// mid-commit — still shows up there; elastic recovery must not select
// it. ValidSteps is the content-checked listing recovery feeds into
// NewestCommonStep.
func (r *Reader) ValidSteps(ctx context.Context) ([]int, error) {
	steps, err := r.Steps(ctx)
	if err != nil {
		return nil, err
	}
	valid := steps[:0]
	for _, s := range steps {
		if _, err := r.ReadManifest(ctx, s); err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			continue // torn, unparsable, or mismatched — not restorable
		}
		valid = append(valid, s)
	}
	return valid, nil
}

// NewestCommonStep returns the newest step present in every set — the
// restore point elastic recovery rolls the job back to. Each set is one
// rank's ValidSteps (any order, duplicates tolerated). It returns ok ==
// false when the intersection is empty, including when sets itself is
// empty.
func NewestCommonStep(sets [][]int) (int, bool) {
	if len(sets) == 0 {
		return 0, false
	}
	counts := make(map[int]int)
	for _, set := range sets {
		seen := make(map[int]bool, len(set))
		for _, s := range set {
			if !seen[s] {
				seen[s] = true
				counts[s]++
			}
		}
	}
	best, ok := 0, false
	for s, n := range counts {
		if n == len(sets) && (!ok || s > best) {
			best, ok = s, true
		}
	}
	return best, ok
}

// LatestStep returns the newest step with a committed manifest, or
// storage.ErrNotFound when no checkpoint exists under the prefix.
func (r *Reader) LatestStep(ctx context.Context) (int, error) {
	steps, err := r.Steps(ctx)
	if err != nil {
		return 0, err
	}
	if len(steps) == 0 {
		return 0, fmt.Errorf("checkpoint: no manifest under prefix %q: %w", r.prefix, storage.ErrNotFound)
	}
	return steps[len(steps)-1], nil
}

// ReadManifest reads and validates the manifest committed at step.
func (r *Reader) ReadManifest(ctx context.Context, step int) (Manifest, error) {
	key := ManifestKey(r.prefix, step)
	buf, err := storage.ReadWholeObject(ctx, r.tier, key)
	if err != nil {
		// A raw (pre-codec) manifest behind a codec-wrapped checkpoint
		// tier surfaces as ErrCorrupt ("no codec header"); the manifest is
		// fine — the tier handle is wrong. Say so.
		if errors.Is(err, tiercodec.ErrCorrupt) && tiercodec.Describe(r.tier) != "" {
			return Manifest{}, fmt.Errorf("checkpoint: manifest step %d: %w — if this checkpoint was written without codec middleware, read it through the raw (unwrapped) checkpoint tier", step, err)
		}
		return Manifest{}, fmt.Errorf("checkpoint: read manifest step %d: %w", step, err)
	}
	var m Manifest
	if err := json.Unmarshal(buf, &m); err != nil {
		// The manifest itself is the bootstrap object, so the engine's
		// manifest-driven codec check cannot protect it: reading an
		// encoded manifest through a codec-less tier yields codec bytes
		// where JSON was expected. Name the actual problem.
		if len(buf) >= 4 && binary.LittleEndian.Uint32(buf) == tiercodec.Magic {
			return Manifest{}, fmt.Errorf("checkpoint: manifest step %d is codec-encoded — the checkpoint was written through codec middleware; wrap the checkpoint tier (e.g. NewCodecTier) to read it", step)
		}
		return Manifest{}, fmt.Errorf("checkpoint: parse manifest step %d: %w", step, err)
	}
	if err := m.Validate(); err != nil {
		return Manifest{}, err
	}
	if m.Step != step {
		return Manifest{}, fmt.Errorf("checkpoint: manifest under step %d records step %d", step, m.Step)
	}
	return m, nil
}

// ReadObject reads a checkpoint-tier object (an Entry with Tier == "")
// into dst, whose length must equal the entry's Bytes.
func (r *Reader) ReadObject(ctx context.Context, key string, dst []byte) error {
	return r.tier.Read(ctx, key, dst)
}

// entryTier resolves the tier an entry's object lives on: the checkpoint
// tier for flushed objects, the named training tier (via resolve) for
// pre-staged snapshots.
func (r *Reader) entryTier(e Entry, resolve func(name string) storage.Tier) (storage.Tier, error) {
	if e.Tier == "" {
		return r.tier, nil
	}
	if resolve == nil {
		return nil, fmt.Errorf("checkpoint: subgroup %d lives on tier %q but no resolver given", e.SubgroupID, e.Tier)
	}
	t := resolve(e.Tier)
	if t == nil {
		return nil, fmt.Errorf("checkpoint: subgroup %d references unknown tier %q", e.SubgroupID, e.Tier)
	}
	return t, nil
}

// Remove deletes a committed checkpoint. The manifest is deleted first —
// a crash mid-removal must uncommit the checkpoint before any data object
// disappears, never leave a manifest referencing deleted objects — then
// every object the manifest references (checkpoint-tier objects and
// pre-staged snapshots via resolve). Deleting an already-missing object
// is not an error.
func (r *Reader) Remove(ctx context.Context, m Manifest, resolve func(name string) storage.Tier) error {
	if err := r.tier.Delete(ctx, ManifestKey(r.prefix, m.Step)); err != nil {
		return fmt.Errorf("checkpoint: remove manifest step %d: %w", m.Step, err)
	}
	for _, e := range m.Entries {
		tier, err := r.entryTier(e, resolve)
		if err != nil {
			return err
		}
		if err := tier.Delete(ctx, e.Key); err != nil {
			return fmt.Errorf("checkpoint: remove step %d subgroup %d: %w", m.Step, e.SubgroupID, err)
		}
	}
	return nil
}

// Prune removes committed checkpoints beyond the newest keep, oldest
// first, returning the removed steps. Without pruning, every checkpoint
// leaves a full optimizer-state copy behind (flushed objects plus
// snapshots on the persistent tiers) and storage grows without bound.
// keep <= 0 is a no-op. Objects of a checkpoint whose manifest never
// landed are not discoverable here and are not touched.
func (r *Reader) Prune(ctx context.Context, keep int, resolve func(name string) storage.Tier) ([]int, error) {
	if keep <= 0 {
		return nil, nil
	}
	steps, err := r.Steps(ctx)
	if err != nil {
		return nil, err
	}
	var removed []int
	for len(steps) > keep {
		m, err := r.ReadManifest(ctx, steps[0])
		if err != nil {
			return removed, err
		}
		if err := r.Remove(ctx, m, resolve); err != nil {
			return removed, err
		}
		removed = append(removed, steps[0])
		steps = steps[1:]
	}
	return removed, nil
}

// SweepOrphans deletes step-tagged data objects left behind by
// checkpoints whose manifest never landed (a crash or error
// mid-checkpoint): such objects are invisible to the Reader and would
// otherwise leak a full optimizer-state copy per failed attempt. Only
// steps strictly older than the newest committed manifest are swept — an
// in-progress checkpoint always targets a newer step, so it is never
// touched; with no committed manifest at all the sweep is a no-op.
// tiers lists the training tiers to sweep for orphaned snapshots in
// addition to the checkpoint tier. It returns the deleted keys.
func (r *Reader) SweepOrphans(ctx context.Context, tiers []storage.Tier) ([]string, error) {
	steps, err := r.Steps(ctx)
	if err != nil {
		return nil, err
	}
	if len(steps) == 0 {
		return nil, nil
	}
	latest := steps[len(steps)-1]
	committed := make(map[int]bool, len(steps))
	for _, s := range steps {
		committed[s] = true
	}
	var deleted []string
	sweep := func(t storage.Tier) error {
		keys, err := t.Keys(ctx)
		if err != nil {
			return fmt.Errorf("checkpoint: sweep %s: %w", t.Name(), err)
		}
		for _, k := range keys {
			if !strings.HasPrefix(k, r.prefix+"-step") || strings.HasSuffix(k, ".manifest") {
				continue
			}
			var step, sg int
			rest := k[len(r.prefix):]
			if _, err := fmt.Sscanf(rest, "-step%d-sg%d.ckpt", &step, &sg); err != nil {
				if _, err := fmt.Sscanf(rest, "-step%d-sg%d.snap", &step, &sg); err != nil {
					continue
				}
			}
			if step >= latest || committed[step] {
				continue
			}
			if err := t.Delete(ctx, k); err != nil {
				return fmt.Errorf("checkpoint: sweep %s/%s: %w", t.Name(), k, err)
			}
			deleted = append(deleted, k)
		}
		return nil
	}
	if err := sweep(r.tier); err != nil {
		return deleted, err
	}
	for _, t := range tiers {
		if err := sweep(t); err != nil {
			return deleted, err
		}
	}
	return deleted, nil
}

// Verify checks that every object a manifest references still exists with
// the recorded size — the staleness check that a step-s checkpoint
// survives further training. resolve maps a named training tier to its
// handle; it is only consulted for pre-staged entries and may be nil when
// the manifest has none.
func (r *Reader) Verify(ctx context.Context, m Manifest, resolve func(name string) storage.Tier) error {
	for _, e := range m.Entries {
		tier, err := r.entryTier(e, resolve)
		if err != nil {
			return err
		}
		size, err := tier.Size(ctx, e.Key)
		if err != nil {
			return fmt.Errorf("checkpoint: subgroup %d object %s: %w", e.SubgroupID, e.Key, err)
		}
		if size != e.Bytes {
			return fmt.Errorf("checkpoint: subgroup %d object %s is %d bytes, manifest records %d",
				e.SubgroupID, e.Key, size, e.Bytes)
		}
	}
	return nil
}
