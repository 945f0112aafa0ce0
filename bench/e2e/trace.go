package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/datastates/mlpoffload/internal/clock"
	"github.com/datastates/mlpoffload/internal/storage"
)

// wall is the benchmark's time source: real devices on real time.
var wall = clock.Wall()

// Span kinds. A root span (iter, checkpoint, restore) is opened by the
// harness around one call into the engine; tier and gradfn spans are
// its children.
const (
	kindIter       = "iter"
	kindCheckpoint = "checkpoint"
	kindRestore    = "restore"
	kindGradFn     = "gradfn"
	kindTier       = "tier"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's side of that boundary.
type span struct {
	id, parent int64
	kind       string
	layer      string // tier name for tier spans, else the kind
	op         string // Read, ReadVec, ReadObject, Write, Delete, Copy; "" otherwise
	start, end time.Duration
	bytes      int64
	failed     bool
}

func (s span) isRead() bool { return s.op == "Read" || s.op == "ReadVec" || s.op == "ReadObject" }

// recorder keeps spans in memory until the run ends. It records only
// while on, which is how a traced run interleaves untraced iterations to
// measure its own overhead.
type recorder struct {
	epoch  time.Time
	on     atomic.Bool
	nextID atomic.Int64
	root   atomic.Int64 // id of the open root span, 0 when none

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: wall.Now()} }

// enable switches recording on or off; a nil recorder stays off.
func (r *recorder) enable(on bool) {
	if r != nil {
		r.on.Store(on)
	}
}

// open starts a span, or returns nil when the recorder is nil or off.
func (r *recorder) open(kind, layer, op string) *span {
	if r == nil || !r.on.Load() {
		return nil
	}
	return &span{id: r.nextID.Add(1), parent: r.root.Load(), kind: kind, layer: layer, op: op, start: wall.Now().Sub(r.epoch)}
}

// finish ends a span from open and keeps it.
func (r *recorder) finish(s *span, bytes int64, err error) {
	if s == nil {
		return
	}
	s.end = wall.Now().Sub(r.epoch)
	s.bytes = bytes
	s.failed = err != nil
	r.mu.Lock()
	r.spans = append(r.spans, *s)
	r.mu.Unlock()
}

// begin opens a span and returns the function that closes it.
func (r *recorder) begin(kind, layer, op string) func(bytes int64, err error) {
	s := r.open(kind, layer, op)
	return func(bytes int64, err error) { r.finish(s, bytes, err) }
}

// beginRoot opens a root span; tier and gradfn spans started before it
// closes name it as their parent. Roots never overlap: the training loop
// is closed, one call into the engine at a time.
func (r *recorder) beginRoot(kind string) func(err error) {
	s := r.open(kind, kind, "")
	if s == nil {
		return func(error) {}
	}
	r.root.Store(s.id)
	return func(err error) {
		r.root.Store(0)
		r.finish(s, 0, err)
	}
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// spanTier records one span per data operation of the tier it wraps and
// changes nothing else. It is placed directly around each tier handed to
// the engine, below any codec the engine adds, so its bytes are wire
// bytes and its time is throttle wait plus device time.
//
// The optional capabilities (storage.VectoredReader, storage.ObjectReader,
// storage.Copier) are always implemented and forward through the storage
// package's own fallbacks, which do for a tier lacking the capability
// exactly what a caller would have done without the wrapper.
type spanTier struct {
	inner storage.Tier
	rec   *recorder
}

func (t *spanTier) Name() string         { return t.inner.Name() }
func (t *spanTier) Unwrap() storage.Tier { return t.inner }
func (t *spanTier) Stats() storage.Stats { return t.inner.Stats() }

func (t *spanTier) Size(ctx context.Context, key string) (int64, error) {
	return t.inner.Size(ctx, key)
}

func (t *spanTier) Keys(ctx context.Context) ([]string, error) { return t.inner.Keys(ctx) }

func (t *spanTier) Read(ctx context.Context, key string, dst []byte) error {
	end := t.rec.begin(kindTier, t.inner.Name(), "Read")
	err := t.inner.Read(ctx, key, dst)
	end(int64(len(dst)), err)
	return err
}

func (t *spanTier) ReadVec(ctx context.Context, keys []string, dsts [][]byte) error {
	end := t.rec.begin(kindTier, t.inner.Name(), "ReadVec")
	err := storage.ReadVec(ctx, t.inner, keys, dsts)
	var n int64
	for _, d := range dsts {
		n += int64(len(d))
	}
	end(n, err)
	return err
}

func (t *spanTier) ReadObject(ctx context.Context, key string) ([]byte, error) {
	end := t.rec.begin(kindTier, t.inner.Name(), "ReadObject")
	data, err := storage.ReadWholeObject(ctx, t.inner, key)
	end(int64(len(data)), err)
	return data, err
}

func (t *spanTier) Write(ctx context.Context, key string, src []byte) error {
	end := t.rec.begin(kindTier, t.inner.Name(), "Write")
	err := t.inner.Write(ctx, key, src)
	end(int64(len(src)), err)
	return err
}

func (t *spanTier) Delete(ctx context.Context, key string) error {
	end := t.rec.begin(kindTier, t.inner.Name(), "Delete")
	err := t.inner.Delete(ctx, key)
	end(0, err)
	return err
}

func (t *spanTier) Copy(ctx context.Context, srcKey, dstKey string) error {
	c, ok := t.inner.(storage.Copier)
	if !ok {
		return storage.ErrCopyUnsupported
	}
	end := t.rec.begin(kindTier, t.inner.Name(), "Copy")
	err := c.Copy(ctx, srcKey, dstKey)
	end(0, err)
	return err
}

// interval is a half-open stretch of run time.
type interval struct{ lo, hi time.Duration }

// unionLen is the total time covered by ivs, overlaps counted once.
// It sorts ivs in place.
func unionLen(ivs []interval) time.Duration {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total, hi time.Duration
	for i, iv := range ivs {
		if i == 0 || iv.lo > hi {
			total += iv.hi - iv.lo
			hi = iv.hi
		} else if iv.hi > hi {
			total += iv.hi - hi
			hi = iv.hi
		}
	}
	return total
}

// clip returns the parts of spans matching keep that fall inside window.
func clip(spans []span, window interval, keep func(span) bool) []interval {
	var out []interval
	for _, s := range spans {
		if !keep(s) {
			continue
		}
		lo, hi := max(s.start, window.lo), min(s.end, window.hi)
		if hi > lo {
			out = append(out, interval{lo, hi})
		}
	}
	return out
}

// writeChromeTrace writes spans in the Chrome trace-event format
// (chrome://tracing, Perfetto). Each layer is a process row; overlapping
// spans of one layer are spread over thread lanes so none hides another.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	sort.Slice(spans, func(a, b int) bool { return spans[a].start < spans[b].start })
	pids := map[string]int{}
	lanes := map[string][]time.Duration{} // per layer: when each lane frees up
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		if _, ok := pids[s.layer]; !ok {
			pids[s.layer] = len(pids) + 1
			events = append(events, event{Name: "process_name", Ph: "M", Pid: pids[s.layer], Args: map[string]any{"name": s.layer}})
		}
		lane := -1
		for i, free := range lanes[s.layer] {
			if free <= s.start {
				lane = i
				break
			}
		}
		if lane < 0 {
			lane = len(lanes[s.layer])
			lanes[s.layer] = append(lanes[s.layer], 0)
		}
		lanes[s.layer][lane] = s.end
		name := s.kind
		if s.op != "" {
			name = s.layer + "." + s.op
		}
		events = append(events, event{
			Name: name, Cat: s.kind, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: pids[s.layer], Tid: lane,
			Args: map[string]any{"id": s.id, "parent": s.parent, "bytes": s.bytes, "failed": s.failed},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
