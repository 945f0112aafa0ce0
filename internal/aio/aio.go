// Package aio is the asynchronous I/O engine of the offloading runtime —
// the stand-in for DeepNVMe/libaio in the paper's implementation. Callers
// submit reads, writes and deletes against a storage tier and receive
// futures; a bounded worker pool per engine drains the submission queues.
// The engine integrates the tierlock concurrency control: when a lock
// manager is supplied, each operation holds the node-level exclusive lock
// for its tier while the device transfer is in flight — and only then: on
// a codec tier (storage.SplitTier) the encode runs before the lock is
// taken and the decode after it is released, so one worker's codec CPU
// overlaps another's transfer.
//
// One engine object is created per storage path per worker process, as in
// the paper ("we instantiate multiple offloading engine objects per
// process, corresponding to the number of storage tiers").
//
// # Priority classes
//
// Operations carry a Class, and each engine schedules a per-tier
// multi-level queue instead of a flat FIFO: workers always serve the
// highest-priority non-empty class, so a background checkpoint stream can
// never head-of-line-block the demand fetch the update committer is
// stalled on. From most to least urgent:
//
//	DemandFetch  a fetch an update worker is blocked on right now
//	GradRead     synchronous gradient reads feeding an imminent update
//	Prefetch     speculative read-ahead issued by the update issuer
//	Flush        lazy eviction writes (durability needed by next phase)
//	Checkpoint   snapshot/write/read streams of checkpointing
//	Migration    background subgroup migration after a replan
//
// Strict priority alone would let a saturated high class starve the rest,
// so the scheduler ages: any queued operation older than the aging
// threshold is served oldest-first regardless of class. Every class is
// therefore guaranteed progress (an op waits at most the threshold plus
// the service times of ops already executing), while fresh demand fetches
// still overtake everything younger.
//
// QueueDepth bounds each class independently; a full Checkpoint queue
// blocks only checkpoint submitters, never a DemandFetch Submit.
//
// # Same-key order
//
// Operations on one key of the engine's tier execute in submission order,
// whatever their kind or class: an op whose key still has an unfinished
// earlier op — queued, parked or executing; every member key of a
// vectored read counts — is parked behind it and enters its class queue
// only when that op finishes. A read therefore observes the write
// submitted before it, and a write survives the delete submitted before
// it, without the caller waiting on either. Priority is inherited down
// the chain: parking (or promoting) an urgent op behind a less urgent one
// promotes that one too, so a demand fetch never waits at Migration
// priority. Parked time is queue time. Ops on different keys are
// unordered, as are ops on one key submitted from goroutines that do not
// order their Submit calls themselves.
//
// Concurrency contract: Submit/Wait/Promote and every metric accessor are
// safe for concurrent use — the update pipeline's issuer, workers and
// committer all submit against the same engines. Operations execute on
// the tier from Workers goroutines concurrently, so the backing
// storage.Tier must honor its own concurrency contract; across different
// keys completion order is neither submission order nor strict class
// order (Workers > 1).
package aio

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/datastates/mlpoffload/internal/bufpool"
	"github.com/datastates/mlpoffload/internal/clock"
	"github.com/datastates/mlpoffload/internal/storage"
	"github.com/datastates/mlpoffload/internal/tierlock"
)

// ErrEngineClosed is returned for submissions after Close.
var ErrEngineClosed = errors.New("aio: engine closed")

// OpKind distinguishes reads, writes and deletes.
type OpKind int

const (
	// Read fetches an object into the caller's buffer.
	Read OpKind = iota
	// Write flushes the caller's buffer to the tier.
	Write
	// Delete removes an object (migration cleanup of stale source copies).
	Delete
)

func (k OpKind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	default:
		return "delete"
	}
}

// Class is an operation's scheduling priority (lower value = more urgent).
type Class int32

const (
	// DemandFetch is a read a consumer is blocked on right now.
	DemandFetch Class = iota
	// GradRead is a gradient read feeding an imminent optimizer update.
	GradRead
	// Prefetch is speculative read-ahead (promotable to DemandFetch).
	Prefetch
	// Flush is a lazy eviction write.
	Flush
	// Checkpoint is checkpoint snapshot/write/read stream traffic.
	Checkpoint
	// Migration is background subgroup migration after a replan.
	Migration

	// NumClasses is the number of priority classes.
	NumClasses = int(Migration) + 1
)

func (c Class) String() string {
	switch c {
	case DemandFetch:
		return "demand-fetch"
	case GradRead:
		return "grad-read"
	case Prefetch:
		return "prefetch"
	case Flush:
		return "flush"
	case Checkpoint:
		return "checkpoint"
	case Migration:
		return "migration"
	default:
		return fmt.Sprintf("class(%d)", int32(c))
	}
}

// Classes lists all priority classes from most to least urgent.
func Classes() []Class {
	return []Class{DemandFetch, GradRead, Prefetch, Flush, Checkpoint, Migration}
}

// Op is one asynchronous I/O operation (a future). Wait blocks until
// completion and returns the operation error.
type Op struct {
	Kind  OpKind
	Key   string
	Bytes int

	class    atomic.Int32
	done     chan struct{}
	err      error
	wire     int64
	codec    time.Duration
	queuedAt time.Time
	started  time.Time
	finished time.Time

	buf []byte
	// Vectored read batch (nil for single-object ops): one scheduling
	// decision fills bufs[i] with the object at keys[i].
	keys []string
	bufs [][]byte
	// Same-key order, guarded by Engine.mu. waits counts the unfinished
	// earlier ops on this op's keys: while it is positive the op is
	// parked — in no class queue. preds are those ops (priority
	// inheritance walks them), next the ops parked behind this one.
	waits int
	preds []*Op
	next  []*Op
}

// memberKeys returns the keys the op operates on.
func (o *Op) memberKeys() []string {
	if o.keys != nil {
		return o.keys
	}
	return []string{o.Key}
}

// WireBytes returns the bytes the operation moved at the device level;
// valid only after Done. Under a codec-wrapped tier this is the encoded
// size (smaller than Bytes when compression won, header included); for
// plain tiers it equals Bytes. Bandwidth consumers — the placement
// estimator above all — must use it instead of Bytes, or compression
// silently inflates their device-bandwidth estimates.
func (o *Op) WireBytes() int64 { return o.wire }

// Class returns the op's current priority class (it can rise via Promote
// while the op is still queued).
func (o *Op) Class() Class { return Class(o.class.Load()) }

// Wait blocks until the operation completes and returns its error.
func (o *Op) Wait() error {
	<-o.done
	return o.err
}

// WaitCtx blocks until completion or context cancellation. The operation
// itself keeps running even if the wait is abandoned.
func (o *Op) WaitCtx(ctx context.Context) error {
	select {
	case <-o.done:
		return o.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Done returns a channel closed at completion.
func (o *Op) Done() <-chan struct{} { return o.done }

// Err returns the operation error; valid only after Done.
func (o *Op) Err() error { return o.err }

// QueueTime returns how long the op waited between submission and
// execution: in its class queue, and before that parked behind an earlier
// op on the same key.
func (o *Op) QueueTime() time.Duration { return o.started.Sub(o.queuedAt) }

// TransferTime returns how long the device transfer took (including the
// exclusive-lock wait when concurrency control is active). On a codec
// tier it excludes CodecTime, so with WireBytes it measures the device.
func (o *Op) TransferTime() time.Duration { return o.finished.Sub(o.started) - o.codec }

// CodecTime returns how long the op spent encoding or decoding on a
// codec tier, outside the tier lock; zero on plain tiers.
func (o *Op) CodecTime() time.Duration { return o.codec }

// Engine is an asynchronous I/O engine bound to one storage tier.
type Engine struct {
	tier  storage.Tier
	split storage.SplitTier // tier's codec halves, nil for a plain tier
	locks *tierlock.Manager
	clk   clock.Clock

	mu     sync.Mutex
	cond   *sync.Cond // enqueue/dequeue/close events
	queues [NumClasses][]*Op
	queued int
	// last maps a key to the latest unfinished op submitted on it — the
	// tail a new op on that key parks behind (same-key order).
	last   map[string]*Op
	depth  int // per-class bound
	aging  time.Duration
	closed bool

	wg     sync.WaitGroup
	ctx    context.Context
	cancel context.CancelFunc

	// metrics
	executing     atomic.Int64
	bytesRead     atomic.Int64
	bytesWritten  atomic.Int64
	wireReadBytes atomic.Int64
	wireWritten   atomic.Int64
	readTimeNS    atomic.Int64
	writeTimeNS   atomic.Int64
	opsDone       atomic.Int64
	opsFailed     atomic.Int64
	perClass      [NumClasses]classCell
}

// classCell accumulates one class's counters.
type classCell struct {
	ops       atomic.Int64
	failed    atomic.Int64
	bytes     atomic.Int64
	wireBytes atomic.Int64
	queueNS   atomic.Int64
	xferNS    atomic.Int64
}

// DefaultAgingThreshold is the queue age beyond which any op is served
// oldest-first regardless of class. It is a few times the transfer time of
// a large subgroup on the emulated tiers — long enough that urgent classes
// keep their edge, short enough that Migration never stalls indefinitely.
const DefaultAgingThreshold = 50 * time.Millisecond

// Config configures an Engine.
type Config struct {
	// Workers is the I/O parallelism against this tier (the paper: "a
	// worker can leverage the preferred I/O parallelism of the alternative
	// storage"). Default 2.
	Workers int
	// QueueDepth bounds pending submissions per class; Submit blocks when
	// the op's class queue is full. Default 64.
	QueueDepth int
	// AgingThreshold is the starvation bound: a queued op older than this
	// is dispatched oldest-first regardless of class. 0 means
	// DefaultAgingThreshold; negative disables aging (strict priority,
	// tests only — low classes can then starve).
	AgingThreshold time.Duration
	// Locks, when non-nil, provides node-level exclusive access control.
	Locks *tierlock.Manager
	// Clock is the time source for op stamps (queuedAt/started/finished)
	// and the aging pick. nil means the wall clock; a virtual clock makes
	// queue-delay and aging assertions exact (see internal/clock).
	Clock clock.Clock
}

// New creates an engine for the given tier.
func New(tier storage.Tier, cfg Config) *Engine {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.AgingThreshold == 0 {
		cfg.AgingThreshold = DefaultAgingThreshold
	}
	ctx, cancel := context.WithCancel(context.Background())
	e := &Engine{
		tier:   tier,
		locks:  cfg.Locks,
		clk:    clock.Or(cfg.Clock),
		depth:  cfg.QueueDepth,
		aging:  cfg.AgingThreshold,
		last:   make(map[string]*Op),
		ctx:    ctx,
		cancel: cancel,
	}
	e.split, _ = tier.(storage.SplitTier)
	e.cond = sync.NewCond(&e.mu)
	for i := 0; i < cfg.Workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e
}

// Tier returns the engine's storage tier.
func (e *Engine) Tier() storage.Tier { return e.tier }

func (e *Engine) worker() {
	defer e.wg.Done()
	for {
		op := e.next()
		if op == nil {
			return
		}
		op.started = e.clk.Now()
		wire, err := e.transfer(op)
		e.finish(op, wire, err)
	}
}

// next blocks until an op is schedulable and dequeues it, or returns nil
// once the engine is closed and fully drained. The executing counter is
// raised inside the same critical section that dequeues, so Drain can
// never observe queued == 0 with the op not yet counted as executing.
func (e *Engine) next() *Op {
	e.mu.Lock()
	defer e.mu.Unlock()
	for e.queued == 0 {
		if e.closed {
			return nil
		}
		e.cond.Wait()
	}
	op := e.pick(e.clk.Now())
	e.queued--
	e.executing.Add(1)
	e.cond.Broadcast() // free a Submit slot, wake Drain pollers
	return op
}

// pick implements the multi-level policy: serve the oldest op whose queue
// age exceeds the aging threshold (starvation proofing, oldest first
// across all classes), otherwise the head of the highest-priority
// non-empty class. Caller holds mu and guarantees queued > 0.
func (e *Engine) pick(now time.Time) *Op {
	best := -1
	if e.aging > 0 {
		for c := 0; c < NumClasses; c++ {
			q := e.queues[c]
			if len(q) == 0 || now.Sub(q[0].queuedAt) < e.aging {
				continue
			}
			if best == -1 || q[0].queuedAt.Before(e.queues[best][0].queuedAt) {
				best = c
			}
		}
	}
	if best == -1 {
		for c := 0; c < NumClasses; c++ {
			if len(e.queues[c]) > 0 {
				best = c
				break
			}
		}
	}
	op := e.queues[best][0]
	e.queues[best][0] = nil // release for GC
	e.queues[best] = e.queues[best][1:]
	return op
}

// transfer runs the op against the tier and returns the bytes the device
// moved.
func (e *Engine) transfer(op *Op) (int64, error) {
	if e.split != nil && op.Kind != Delete {
		return e.executeSplit(op)
	}
	rel, err := e.lock(op)
	if err != nil {
		return 0, err
	}
	// A codec decorator records the encoded (device-level) size of the
	// transfer into the wire-count cell; plain tiers leave it at zero and
	// the op's raw size stands in.
	var wc *storage.WireCount
	ctx := e.ctx
	switch op.Kind {
	case Read:
		ctx, wc = storage.WithWireCount(ctx)
		if op.keys != nil {
			err = storage.ReadVec(ctx, e.tier, op.keys, op.bufs)
		} else {
			err = e.tier.Read(ctx, op.Key, op.buf)
		}
	case Write:
		ctx, wc = storage.WithWireCount(ctx)
		err = e.tier.Write(ctx, op.Key, op.buf)
	case Delete:
		err = e.tier.Delete(ctx, op.Key)
	}
	rel()
	wire := int64(op.Bytes)
	if wc != nil {
		if w := wc.Bytes(); w > 0 {
			wire = w
		}
	}
	return wire, err
}

// lock takes the tier's node-level exclusive lock when concurrency
// control is active; the returned release is never nil.
func (e *Engine) lock(op *Op) (tierlock.Release, error) {
	if e.locks == nil {
		return func() {}, nil
	}
	rel, err := e.locks.Acquire(e.ctx, e.tier.Name())
	if err != nil {
		return nil, fmt.Errorf("aio: %s %s: lock: %w", op.Kind, op.Key, err)
	}
	return rel, nil
}

// executeSplit runs a read or write against a codec tier with the codec's
// CPU outside the tier lock: a write encodes, then takes the lock for the
// inner write of the encoded object; a read — each member of a vectored
// one — takes the lock for the inner whole-object read, releases it, and
// only then decodes. It returns the encoded bytes the device moved.
func (e *Engine) executeSplit(op *Op) (int64, error) {
	if op.Kind == Write {
		t0 := e.clk.Now()
		enc := e.split.Encode(op.buf)
		defer bufpool.Put(enc)
		op.codec = e.clk.Since(t0)
		rel, err := e.lock(op)
		if err != nil {
			return 0, err
		}
		ctx, wc := storage.WithWireCount(e.ctx)
		err = e.split.WriteEncoded(ctx, op.Key, enc)
		rel()
		return wc.Bytes(), err
	}
	if op.keys == nil {
		return e.readSplit(op, op.Key, op.buf)
	}
	var wire int64
	for i, key := range op.keys {
		w, err := e.readSplit(op, key, op.bufs[i])
		wire += w
		if err != nil {
			return wire, err
		}
	}
	return wire, nil
}

// readSplit reads and decodes one object of a codec tier into dst.
func (e *Engine) readSplit(op *Op, key string, dst []byte) (int64, error) {
	rel, err := e.lock(op)
	if err != nil {
		return 0, err
	}
	ctx, wc := storage.WithWireCount(e.ctx)
	enc, err := e.split.ReadEncoded(ctx, key)
	rel()
	if err != nil {
		return 0, err
	}
	defer bufpool.Put(enc)
	t0 := e.clk.Now()
	err = e.split.Decode(key, enc, dst)
	op.codec += e.clk.Since(t0)
	return wc.Bytes(), err
}

// finish stamps and accounts a completed op, then retires it under the
// queue lock: the ops parked behind it enter their class queues, the op
// completes, and the executing counter (raised in next, under the same
// lock) drops — one critical section, so Drain never observes idleness
// between an op finishing and its followers becoming schedulable.
func (e *Engine) finish(op *Op, wire int64, err error) {
	op.finished = e.clk.Now()
	op.err = err
	op.wire = wire
	d := op.TransferTime().Nanoseconds()
	cell := &e.perClass[op.Class()]
	cell.queueNS.Add(op.started.Sub(op.queuedAt).Nanoseconds())
	if err == nil {
		switch op.Kind {
		case Read:
			e.bytesRead.Add(int64(op.Bytes))
			e.wireReadBytes.Add(wire)
			e.readTimeNS.Add(d)
		case Write:
			e.bytesWritten.Add(int64(op.Bytes))
			e.wireWritten.Add(wire)
			e.writeTimeNS.Add(d)
		}
		e.opsDone.Add(1)
		cell.ops.Add(1)
		cell.bytes.Add(int64(op.Bytes))
		cell.wireBytes.Add(wire)
		cell.xferNS.Add(d)
	} else {
		e.opsFailed.Add(1)
		cell.failed.Add(1)
	}
	e.mu.Lock()
	for _, key := range op.memberKeys() {
		if e.last[key] == op {
			delete(e.last, key)
		}
	}
	for _, n := range op.next {
		if n.waits--; n.waits == 0 {
			n.preds = nil
			e.push(n)
		}
	}
	op.next = nil
	close(op.done)
	e.executing.Add(-1)
	e.cond.Broadcast()
	e.mu.Unlock()
}

// push appends a runnable op to its class queue. Caller holds mu.
func (e *Engine) push(op *Op) {
	c := op.Class()
	e.queues[c] = append(e.queues[c], op)
	e.queued++
}

// submit enqueues a single-object op at the given class.
func (e *Engine) submit(c Class, kind OpKind, key string, buf []byte) (*Op, error) {
	if c < 0 || int(c) >= NumClasses {
		return nil, fmt.Errorf("aio: invalid class %d", c)
	}
	op := &Op{Kind: kind, Key: key, Bytes: len(buf), done: make(chan struct{}), buf: buf}
	op.class.Store(int32(c))
	return e.enqueue(c, op)
}

// enqueue admits a prepared op, blocking while its class queue is
// full: it becomes the latest op on each of its keys, and either enters
// the class queue or — when a key still has an unfinished earlier op —
// parks behind it, lending that op its class (same-key order).
func (e *Engine) enqueue(c Class, op *Op) (*Op, error) {
	e.mu.Lock()
	for !e.closed && len(e.queues[c]) >= e.depth {
		e.cond.Wait()
	}
	if e.closed {
		e.mu.Unlock()
		return nil, ErrEngineClosed
	}
	op.queuedAt = e.clk.Now()
	for _, key := range op.memberKeys() {
		if p := e.last[key]; p != nil && p != op {
			p.next = append(p.next, op)
			op.preds = append(op.preds, p)
			op.waits++
			e.promote(p, c)
		}
		e.last[key] = op
	}
	if op.waits == 0 {
		e.push(op)
	}
	e.cond.Broadcast()
	e.mu.Unlock()
	return op, nil
}

// SubmitReadClass enqueues an asynchronous fetch of key into dst at the
// given priority class. The caller must not touch dst until the returned
// op completes.
func (e *Engine) SubmitReadClass(c Class, key string, dst []byte) (*Op, error) {
	return e.submit(c, Read, key, dst)
}

// SubmitReadVecClass enqueues one vectored fetch: a single operation —
// one queue slot, one scheduling decision, one worker dispatch — that
// fills dsts[i] with the object at keys[i] via the tier's vectored
// read path (storage.ReadVec). It exists for the issuer's read-ahead
// coalescing: a run of adjacent same-tier subgroup objects rides one op
// instead of len(keys) queue round trips. The caller must not touch any
// dst until the op completes. Failure is batch-granular (the op's error
// names the first failing member); callers needing attribution re-read
// members individually. A one-element batch degrades to a plain read.
func (e *Engine) SubmitReadVecClass(c Class, keys []string, dsts [][]byte) (*Op, error) {
	if c < 0 || int(c) >= NumClasses {
		return nil, fmt.Errorf("aio: invalid class %d", c)
	}
	if len(keys) != len(dsts) {
		return nil, fmt.Errorf("aio: vectored read: %d keys, %d buffers", len(keys), len(dsts))
	}
	if len(keys) == 0 {
		return nil, errors.New("aio: vectored read: empty batch")
	}
	if len(keys) == 1 {
		return e.submit(c, Read, keys[0], dsts[0])
	}
	total := 0
	for _, d := range dsts {
		total += len(d)
	}
	op := &Op{Kind: Read, Key: fmt.Sprintf("%s (+%d)", keys[0], len(keys)-1), Bytes: total, done: make(chan struct{}), keys: keys, bufs: dsts}
	op.class.Store(int32(c))
	return e.enqueue(c, op)
}

// SubmitWriteClass enqueues an asynchronous flush of src under key at the
// given priority class. The caller must not modify src until the returned
// op completes.
func (e *Engine) SubmitWriteClass(c Class, key string, src []byte) (*Op, error) {
	return e.submit(c, Write, key, src)
}

// SubmitDelete enqueues an asynchronous removal of key at the given
// priority class. Deleting a missing key is not an error (Tier contract).
func (e *Engine) SubmitDelete(c Class, key string) (*Op, error) {
	return e.submit(c, Delete, key, nil)
}

// SubmitRead enqueues a fetch at DemandFetch priority — the default for
// callers that will block on the result immediately.
func (e *Engine) SubmitRead(key string, dst []byte) (*Op, error) {
	return e.submit(DemandFetch, Read, key, dst)
}

// SubmitWrite enqueues a flush at Flush priority — the default for lazy
// durability writes.
func (e *Engine) SubmitWrite(key string, src []byte) (*Op, error) {
	return e.submit(Flush, Write, key, src)
}

// Promote raises a queued op to a more urgent class (typically a Prefetch
// the update worker is now blocked on, promoted to DemandFetch). An op
// parked behind earlier same-key ops takes those along — the wait is
// theirs. It is a no-op if the op already started executing, completed,
// or already has equal or higher priority.
func (e *Engine) Promote(op *Op, c Class) {
	if c < 0 || int(c) >= NumClasses {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.promote(op, c)
}

// promote is Promote with mu held.
func (e *Engine) promote(op *Op, c Class) {
	cur := op.Class()
	if c >= cur {
		return
	}
	if op.waits > 0 {
		op.class.Store(int32(c))
		for _, p := range op.preds {
			e.promote(p, c)
		}
		return
	}
	q := e.queues[cur]
	for i, qo := range q {
		if qo != op {
			continue
		}
		copy(q[i:], q[i+1:])
		q[len(q)-1] = nil
		e.queues[cur] = q[:len(q)-1]
		e.queues[c] = append(e.queues[c], op)
		op.class.Store(int32(c))
		e.cond.Broadcast() // a slot opened in cur's queue
		return
	}
}

// ReadSync is a convenience synchronous read through the async path at
// DemandFetch priority.
func (e *Engine) ReadSync(key string, dst []byte) error {
	op, err := e.SubmitRead(key, dst)
	if err != nil {
		return err
	}
	return op.Wait()
}

// WriteSync is a convenience synchronous write through the async path at
// Flush priority.
func (e *Engine) WriteSync(key string, src []byte) error {
	op, err := e.SubmitWrite(key, src)
	if err != nil {
		return err
	}
	return op.Wait()
}

// Metrics is a snapshot of engine counters. Bytes are raw (caller-side)
// counts; WireBytes are the device-level counts, which differ under a
// codec-wrapped tier (see Op.WireBytes).
type Metrics struct {
	BytesRead        int64
	BytesWritten     int64
	WireBytesRead    int64
	WireBytesWritten int64
	ReadTime         time.Duration
	WriteTime        time.Duration
	OpsDone          int64
	OpsFailed        int64
}

// ReadBW returns the observed *effective* read bandwidth in bytes/second
// — raw bytes delivered per device second (0 when no reads completed).
func (m Metrics) ReadBW() float64 {
	if m.ReadTime <= 0 {
		return 0
	}
	return float64(m.BytesRead) / m.ReadTime.Seconds()
}

// WriteBW returns the observed effective write bandwidth in bytes/second.
func (m Metrics) WriteBW() float64 {
	if m.WriteTime <= 0 {
		return 0
	}
	return float64(m.BytesWritten) / m.WriteTime.Seconds()
}

// Metrics returns a snapshot of the engine counters.
func (e *Engine) Metrics() Metrics {
	return Metrics{
		BytesRead:        e.bytesRead.Load(),
		BytesWritten:     e.bytesWritten.Load(),
		WireBytesRead:    e.wireReadBytes.Load(),
		WireBytesWritten: e.wireWritten.Load(),
		ReadTime:         time.Duration(e.readTimeNS.Load()),
		WriteTime:        time.Duration(e.writeTimeNS.Load()),
		OpsDone:          e.opsDone.Load(),
		OpsFailed:        e.opsFailed.Load(),
	}
}

// ClassMetrics is a snapshot of one priority class's counters. Ops counts
// successful completions; an op promoted while queued is accounted under
// the class it was dispatched at. WireBytes is the device-level count
// (equal to Bytes unless the tier is codec-wrapped); Bytes/WireBytes is
// the class's compression ratio.
type ClassMetrics struct {
	Ops        int64
	Failed     int64
	Bytes      int64
	WireBytes  int64
	QueueDelay time.Duration // total time ops of this class sat queued
	Transfer   time.Duration // total device time of successful ops
}

// ClassMetrics returns a snapshot of one class's counters.
func (e *Engine) ClassMetrics(c Class) ClassMetrics {
	cell := &e.perClass[c]
	return ClassMetrics{
		Ops:        cell.ops.Load(),
		Failed:     cell.failed.Load(),
		Bytes:      cell.bytes.Load(),
		WireBytes:  cell.wireBytes.Load(),
		QueueDelay: time.Duration(cell.queueNS.Load()),
		Transfer:   time.Duration(cell.xferNS.Load()),
	}
}

// PerClassMetrics returns snapshots for all classes, indexed by Class.
func (e *Engine) PerClassMetrics() [NumClasses]ClassMetrics {
	var out [NumClasses]ClassMetrics
	for c := 0; c < NumClasses; c++ {
		out[c] = e.ClassMetrics(Class(c))
	}
	return out
}

// QueuedByClass reports the current queue length of each class (a
// scheduling observability hook; values are instantaneous).
func (e *Engine) QueuedByClass() [NumClasses]int {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out [NumClasses]int
	for c := 0; c < NumClasses; c++ {
		out[c] = len(e.queues[c])
	}
	return out
}

// Drain waits for all currently queued and executing operations to finish.
// It is the barrier the engine uses at phase boundaries ("wait for all
// lazy flushes before starting the next backward pass"). It blocks on the
// engine condition variable — no polling — and is woken by the same
// broadcasts that pace Submit: dequeue in next() and completion in
// finish(). The executing counter moves only under mu (raised in next,
// lowered in finish), so "queued == 0 && executing == 0" is an atomic
// idleness observation, never a racy in-between — and it covers parked
// ops, each of which waits on an op that is queued or executing.
func (e *Engine) Drain() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for e.queued > 0 || e.executing.Load() > 0 {
		e.cond.Wait()
	}
}

// Close stops accepting submissions, waits for queued and parked ops of
// every class to finish, and releases workers. Close is idempotent.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.cond.Broadcast()
	e.mu.Unlock()
	e.wg.Wait()
	e.cancel()
}
