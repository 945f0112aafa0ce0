// Package storage provides the storage-tier abstraction of the offloading
// engine: a key/value object store with whole-object reads and writes, the
// access pattern of subgroup offloading (each subgroup's optimizer state is
// one object, always fetched and flushed in full).
//
// Implementations:
//   - MemTier: host-memory store (second-level tier / test substrate),
//   - FileTier: directory-backed store (a real NVMe or PFS mount),
//   - Throttled: decorator imposing bandwidth, latency and contention so a
//     laptop reproduces the I/O behaviour of Table 1 devices.
package storage

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math/rand/v2"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/datastates/mlpoffload/internal/bufpool"
	"github.com/datastates/mlpoffload/internal/ratelimit"
)

// ErrNotFound is returned when a key does not exist in a tier.
var ErrNotFound = errors.New("storage: key not found")

// ErrTierDown is returned (wrapped) by every operation on a tier that
// has failed hard — an outage, not a transient fault: no retry against
// the same tier can succeed. Callers distinguish it from transient
// corruption (tiercodec.ErrCorrupt) to choose degradation over retry:
// re-placing subgroups onto surviving tiers, failing the phase cleanly,
// or triggering elastic recovery.
var ErrTierDown = errors.New("storage: tier down")

// Tier is an object store with whole-object semantics.
//
// Concurrency contract: implementations must be safe for concurrent use by
// multiple goroutines. The aio engine calls Read and Write from its Workers
// goroutines per tier, the engine's update pipeline adds UpdateWorkers
// concurrent callers on top, and several engine instances may share one
// Tier on a node (TestFourWorkersSharedNode). Concurrent operations on
// distinct keys must not interfere; concurrent operations on the same key
// must each behave atomically (a Read observes some complete previously
// written object, never a torn mix). A tier does not order concurrent
// operations on one key; the aio engine in front of it does — it executes
// the operations on one key in submission order (package aio, "Same-key
// order"), which is what puts a refetch after its eviction flush.
type Tier interface {
	// Name identifies the tier (e.g. "nvme", "pfs").
	Name() string
	// Read fills dst with the object's bytes. The object size must equal
	// len(dst); subgroup objects have fixed, known sizes.
	Read(ctx context.Context, key string, dst []byte) error
	// Write stores src under key, replacing any previous object.
	Write(ctx context.Context, key string, src []byte) error
	// Delete removes key. Deleting a missing key is not an error.
	Delete(ctx context.Context, key string) error
	// Size returns the stored size of key, or ErrNotFound.
	Size(ctx context.Context, key string) (int64, error)
	// Keys lists stored keys (sorted), mainly for tests and tooling.
	Keys(ctx context.Context) ([]string, error)
	// Stats returns cumulative transfer statistics.
	Stats() Stats
}

// ErrCopyUnsupported is returned by a Copier whose backing store cannot
// perform server-side copies (e.g. a decorator over a plain Tier).
var ErrCopyUnsupported = errors.New("storage: server-side copy unsupported")

// Copier is an optional Tier capability: duplicate an object under a new
// key without moving its bytes through the host. Checkpoint pre-staging
// uses it to version persistent-tier objects "for free" — a hard link on
// FileTier, a buffer alias on MemTier. The copy must be isolated from
// later Writes to either key (Tier.Write always publishes a fresh
// object, never mutates in place, so link/alias implementations are
// safe). Implementations that merely delegate may return
// ErrCopyUnsupported; use TryCopy to fall back gracefully.
type Copier interface {
	Copy(ctx context.Context, srcKey, dstKey string) error
}

// TryCopy performs a server-side copy when the tier supports it. It
// reports whether the copy was performed; (false, nil) means the caller
// must fall back to a read+write.
func TryCopy(ctx context.Context, t Tier, srcKey, dstKey string) (bool, error) {
	c, ok := t.(Copier)
	if !ok {
		return false, nil
	}
	err := c.Copy(ctx, srcKey, dstKey)
	if errors.Is(err, ErrCopyUnsupported) {
		return false, nil
	}
	return true, err
}

// Stats accumulates tier traffic.
type Stats struct {
	BytesRead    int64
	BytesWritten int64
	Reads        int64
	Writes       int64
}

// statsCell is an embeddable atomic Stats accumulator.
type statsCell struct {
	bytesRead    atomic.Int64
	bytesWritten atomic.Int64
	reads        atomic.Int64
	writes       atomic.Int64
}

func (s *statsCell) addRead(n int64)  { s.bytesRead.Add(n); s.reads.Add(1) }
func (s *statsCell) addWrite(n int64) { s.bytesWritten.Add(n); s.writes.Add(1) }

func (s *statsCell) snapshot() Stats {
	return Stats{
		BytesRead:    s.bytesRead.Load(),
		BytesWritten: s.bytesWritten.Load(),
		Reads:        s.reads.Load(),
		Writes:       s.writes.Load(),
	}
}

// MemTier is an in-memory Tier.
//
// Allocation discipline: stored buffers come from internal/bufpool and
// are recycled when a Write replaces them or a Delete removes them, so a
// steady-state training loop over a MemTier allocates nothing per
// operation. Two rules make that safe: all copies in and out of stored
// buffers happen *under the lock* (the lock, not buffer freshness, is
// what makes concurrent same-key operations atomic), and a buffer that
// Copy has aliased under a second key is marked shared and never
// recycled — it is released to the garbage collector instead.
type MemTier struct {
	name string
	mu   sync.RWMutex
	data map[string]memObj
	statsCell
}

// memObj is one stored object. shared marks buffers aliased under more
// than one key by Copy; they are never returned to the buffer pool.
type memObj struct {
	data   []byte
	shared bool
}

// NewMemTier creates an empty in-memory tier.
func NewMemTier(name string) *MemTier {
	return &MemTier{name: name, data: make(map[string]memObj)}
}

// Name implements Tier.
func (m *MemTier) Name() string { return m.name }

// Read implements Tier. The copy-out happens under the read lock:
// concurrent reads proceed in parallel while a same-key Write (which
// replaces and may recycle the buffer under the write lock) is excluded
// until the copy completes — the atomicity the Tier contract requires.
func (m *MemTier) Read(ctx context.Context, key string, dst []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	m.mu.RLock()
	obj, ok := m.data[key]
	if !ok {
		m.mu.RUnlock()
		return fmt.Errorf("%w: %s/%s", ErrNotFound, m.name, key)
	}
	if len(obj.data) != len(dst) {
		m.mu.RUnlock()
		return fmt.Errorf("storage: %s/%s size %d != dst %d", m.name, key, len(obj.data), len(dst))
	}
	copy(dst, obj.data)
	m.mu.RUnlock()
	m.addRead(int64(len(dst)))
	return nil
}

// ReadVec implements VectoredReader: the whole batch copies out under
// one read-lock acquisition instead of one per object. Per-object
// atomicity is unchanged (stronger, even: the batch is a consistent
// snapshot).
func (m *MemTier) ReadVec(ctx context.Context, keys []string, dsts [][]byte) error {
	if len(keys) != len(dsts) {
		return fmt.Errorf("storage: %s: vectored read: %d keys, %d buffers", m.name, len(keys), len(dsts))
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	m.mu.RLock()
	total := 0
	for i, key := range keys {
		obj, ok := m.data[key]
		if !ok {
			m.mu.RUnlock()
			return fmt.Errorf("%w: %s/%s", ErrNotFound, m.name, key)
		}
		if len(obj.data) != len(dsts[i]) {
			m.mu.RUnlock()
			return fmt.Errorf("storage: %s/%s size %d != dst %d", m.name, key, len(obj.data), len(dsts[i]))
		}
		copy(dsts[i], obj.data)
		total += len(dsts[i])
	}
	m.mu.RUnlock()
	m.bytesRead.Add(int64(total))
	m.reads.Add(int64(len(keys)))
	return nil
}

// Write implements Tier. The buffer a Write replaces is recycled into
// the shared pool unless Copy aliased it under another key.
func (m *MemTier) Write(ctx context.Context, key string, src []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	buf := bufpool.Get(len(src))
	copy(buf, src)
	m.mu.Lock()
	if old, ok := m.data[key]; ok && !old.shared {
		bufpool.Put(old.data)
	}
	m.data[key] = memObj{data: buf}
	m.mu.Unlock()
	m.addWrite(int64(len(src)))
	return nil
}

// ReadObject implements ObjectReader: the returned buffer is one
// complete previously written object, copied out under the read lock
// (see Read). It is caller-owned pooled memory — recycling it with
// bufpool.Put when done closes the allocation loop, dropping it is
// equally correct.
func (m *MemTier) ReadObject(ctx context.Context, key string) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m.mu.RLock()
	obj, ok := m.data[key]
	if !ok {
		m.mu.RUnlock()
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, m.name, key)
	}
	out := bufpool.Get(len(obj.data))
	copy(out, obj.data)
	m.mu.RUnlock()
	m.addRead(int64(len(out)))
	return out, nil
}

// Copy implements Copier by aliasing the stored buffer under the new
// key: MemTier never mutates stored buffers in place (Write replaces),
// so sharing is safe and the copy moves no bytes. Both entries are
// marked shared, which permanently exempts the buffer from pool
// recycling (the object graph, not the pool, then owns it).
func (m *MemTier) Copy(ctx context.Context, srcKey, dstKey string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	obj, ok := m.data[srcKey]
	if !ok {
		return fmt.Errorf("%w: %s/%s", ErrNotFound, m.name, srcKey)
	}
	obj.shared = true
	m.data[srcKey] = obj
	if old, ok := m.data[dstKey]; ok && !old.shared {
		bufpool.Put(old.data)
	}
	m.data[dstKey] = memObj{data: obj.data, shared: true}
	return nil
}

// Delete implements Tier.
func (m *MemTier) Delete(ctx context.Context, key string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	m.mu.Lock()
	if old, ok := m.data[key]; ok && !old.shared {
		bufpool.Put(old.data)
	}
	delete(m.data, key)
	m.mu.Unlock()
	return nil
}

// Size implements Tier.
func (m *MemTier) Size(ctx context.Context, key string) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	m.mu.RLock()
	obj, ok := m.data[key]
	m.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("%w: %s/%s", ErrNotFound, m.name, key)
	}
	return int64(len(obj.data)), nil
}

// Keys implements Tier.
func (m *MemTier) Keys(ctx context.Context) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m.mu.RLock()
	out := make([]string, 0, len(m.data))
	for k := range m.data {
		out = append(out, k)
	}
	m.mu.RUnlock()
	sort.Strings(out)
	return out, nil
}

// Stats implements Tier.
func (m *MemTier) Stats() Stats { return m.snapshot() }

// FileTier stores each object as a file under a directory, the layout the
// real system uses for /local/ (NVMe mount) and /remote/ (PFS mount)
// offload directories. Every read opens the object's file, reads it
// whole and closes it; every write publishes a fresh file by rename. It
// holds no descriptors between operations.
//
// On Linux the per-object operations allocate nothing: each builds its
// NUL-terminated path in a stack buffer and issues, on a raw descriptor,
//
//	Read, ReadVec member, ReadObject  openat, fstat, pread…, close
//	Write                             openat(O_CREAT|O_EXCL), pwrite…,
//	                                  close, renameat2(RENAME_EXCHANGE)
//	                                  and unlinkat of the replaced inode
//	                                  (renameat2 without flags for a
//	                                  first write)
//	Delete                            unlinkat
//
// where pread and pwrite repeat on a short transfer or EINTR. Size,
// Keys and Copy are cold paths and go through the os package.
type FileTier struct {
	name string
	dir  string
	// noExchange is set once the exchange publish is refused; Write
	// then publishes by rename only.
	noExchange atomic.Bool
	// tmpPrefix, drawn at random once per tier, and tmpSeq name Write's
	// temp files, so writers in different processes sharing the
	// directory draw distinct names; a name taken anyway (EEXIST) is
	// skipped for the next.
	tmpPrefix uint64
	tmpSeq    atomic.Uint64
	statsCell
}

// NewFileTier creates (if needed) dir and returns a tier backed by it.
func NewFileTier(name, dir string) (*FileTier, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create %s: %w", dir, err)
	}
	return &FileTier{name: name, dir: dir, tmpPrefix: rand.Uint64()}, nil
}

// Close is a no-op, since the tier keeps no descriptors open. It exists
// so callers can release a FileTier like any other closable resource.
func (f *FileTier) Close() error { return nil }

// Name implements Tier.
func (f *FileTier) Name() string { return f.name }

// Dir returns the backing directory.
func (f *FileTier) Dir() string { return f.dir }

// cpath is a NUL-terminated file path, the form the kernel takes.
type cpath []byte

func (p cpath) String() string { return string(p[:len(p)-1]) }

// pathBuf sizes the stack buffers the per-op paths are built in; a
// longer path spills to the heap and still works.
const pathBuf = 512

// errKeyNUL rejects a key no file name can hold.
var errKeyNUL = errors.New("storage: key contains a NUL byte")

// appendPath appends dir/key to buf, with path separators in key escaped
// (keys are flat).
func (f *FileTier) appendPath(buf []byte, key string) []byte {
	buf = append(buf, f.dir...)
	buf = append(buf, os.PathSeparator)
	for i := 0; i < len(key); i++ {
		c := key[i]
		if c == os.PathSeparator {
			c = '_'
		}
		buf = append(buf, c)
	}
	return buf
}

// objPath builds key's object path in buf.
func (f *FileTier) objPath(buf []byte, key string) (cpath, error) {
	if strings.IndexByte(key, 0) >= 0 {
		return nil, errKeyNUL
	}
	return append(f.appendPath(buf, key), 0), nil
}

// path returns key's object path for the os package's cold paths.
func (f *FileTier) path(key string) string {
	var buf [pathBuf]byte
	return string(f.appendPath(buf[:0], key))
}

// tmpPath builds the seq'th temp name for key in buf. It ends in .tmp,
// so Keys never lists it.
func (f *FileTier) tmpPath(buf []byte, key string, seq uint64) cpath {
	buf = append(f.appendPath(buf, key), '.')
	buf = strconv.AppendUint(buf, f.tmpPrefix, 16)
	buf = append(buf, '-')
	buf = strconv.AppendUint(buf, seq, 10)
	return append(buf, ".tmp\x00"...)
}

// openObject opens key's object and returns the file with its size.
// The size comes from the open descriptor, and Write replaces objects
// by publishing a fresh inode, so the size and every later read
// describe the same complete object even if a concurrent Write
// publishes a new one. The caller closes the file.
func (f *FileTier) openObject(key string) (rawFile, int64, error) {
	var buf [pathBuf]byte
	var fh rawFile
	p, err := f.objPath(buf[:0], key)
	if err != nil {
		return fh, 0, err
	}
	fh, size, err := openObject(p)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return fh, 0, fmt.Errorf("%w: %s/%s", ErrNotFound, f.name, key)
		}
		return fh, 0, fmt.Errorf("storage: open %s: %w", p.String(), err)
	}
	return fh, size, nil
}

// readInto fills dst with key's object. An object larger than dst is
// rejected before any byte moves; a smaller one ends in EOF inside
// readAtFull, whose error reports how far the read got.
func (f *FileTier) readInto(key string, dst []byte) error {
	fh, size, err := f.openObject(key)
	if err != nil {
		return err
	}
	defer fh.Close()
	if size > int64(len(dst)) {
		return fmt.Errorf("storage: %s/%s size %d != dst %d", f.name, key, size, len(dst))
	}
	if n, err := readAtFull(fh, dst, 0); err != nil {
		return fmt.Errorf("storage: short read %s/%s (%d/%d): %w", f.name, key, n, len(dst), err)
	}
	return nil
}

// Read implements Tier.
func (f *FileTier) Read(ctx context.Context, key string, dst []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := f.readInto(key, dst); err != nil {
		return err
	}
	f.addRead(int64(len(dst)))
	return nil
}

// ReadVec implements VectoredReader. Each object is its own file, so
// the batch cannot collapse into one system call; the win is one aio
// scheduling decision for the whole run, with each object moved by the
// same path as Read.
func (f *FileTier) ReadVec(ctx context.Context, keys []string, dsts [][]byte) error {
	if len(keys) != len(dsts) {
		return fmt.Errorf("storage: %s: vectored read: %d keys, %d buffers", f.name, len(keys), len(dsts))
	}
	for i := range keys {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := f.readInto(keys[i], dsts[i]); err != nil {
			return err
		}
		f.addRead(int64(len(dsts[i])))
	}
	return nil
}

// ReadObject implements ObjectReader. One descriptor serves the size
// probe and the whole read (see openObject), so a concurrent writer can
// never make this observe a torn object. The returned buffer is
// caller-owned pooled memory (see MemTier.ReadObject).
func (f *FileTier) ReadObject(ctx context.Context, key string) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	fh, size, err := f.openObject(key)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	data := bufpool.Get(int(size))
	if n, err := readAtFull(fh, data, 0); err != nil {
		rerr := fmt.Errorf("storage: read %s/%s (%d/%d): %w", f.name, key, n, len(data), err)
		bufpool.Put(data)
		return nil, rerr
	}
	f.addRead(int64(len(data)))
	return data, nil
}

// Write implements Tier. The object goes to a temp file in the tier's
// directory, named uniquely for this tier instance and write and created
// exclusively, which is then published under the key: a crashed flush
// must not leave a torn subgroup object, and concurrent writers of one
// key — in this process or another sharing the directory — must each
// publish a complete object (a shared temp path would let one writer
// rename another's half-written file into place). Readers see the old
// object or the new one at every instant, never a missing key. The
// published file has mode 0644 less the process umask.
//
// Over an existing key the temp file is published by exchanging the two
// names (Linux renameat2 with RENAME_EXCHANGE), after which the temp
// name holds the old object's inode and is unlinked. A rename over an
// existing file makes ext4 (auto_da_alloc) start writeback of the new
// data inside rename(); the exchange does not, which is most of a
// flush's cost on a fast device. A first write (nothing to exchange
// with), or a kernel, filesystem or OS without the exchange, publishes
// by plain rename instead; the first refusal of the exchange switches
// the tier to rename for good.
//
// If unlinking the old inode's temp name fails after the exchange, Write
// still returns nil: the new object is published and the write is
// complete. The old bytes stay behind under a *.tmp name, which Keys
// never lists, until something removes the file.
//
// No path fsyncs: a published object survives a process crash, not a
// power loss.
func (f *FileTier) Write(ctx context.Context, key string, src []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	var pbuf, tbuf [pathBuf]byte
	p, err := f.objPath(pbuf[:0], key)
	if err != nil {
		return err
	}
	tmp, fh, err := f.createTemp(tbuf[:0], key)
	if err != nil {
		return err
	}
	if _, err := writeAtFull(fh, src, 0); err != nil {
		fh.Close()
		unlink(tmp)
		return fmt.Errorf("storage: write %s: %w", tmp.String(), err)
	}
	if err := fh.Close(); err != nil {
		unlink(tmp)
		return fmt.Errorf("storage: close %s: %w", tmp.String(), err)
	}
	if err := f.publish(tmp, p); err != nil {
		unlink(tmp)
		return fmt.Errorf("storage: publish %s: %w", p.String(), err)
	}
	f.addWrite(int64(len(src)))
	return nil
}

// maxTempTries bounds createTemp's walk past names that already exist.
const maxTempTries = 100

// createTemp creates a fresh temp file for key, built in buf, skipping
// names some other writer (or a crashed one) left behind.
func (f *FileTier) createTemp(buf []byte, key string) (cpath, rawFile, error) {
	for try := 1; ; try++ {
		tmp := f.tmpPath(buf, key, f.tmpSeq.Add(1))
		fh, err := createExcl(tmp)
		if err == nil {
			return tmp, fh, nil
		}
		if !errors.Is(err, fs.ErrExist) || try == maxTempTries {
			return nil, fh, fmt.Errorf("storage: create %s: %w", tmp.String(), err)
		}
	}
}

// errNoExchange reports that this kernel, filesystem or OS cannot swap
// two directory entries atomically.
var errNoExchange = errors.New("storage: rename exchange unsupported")

// publish makes the finished temp file tmp the object at p: by exchange
// over an existing object, by rename otherwise (see Write).
func (f *FileTier) publish(tmp, p cpath) error {
	if !f.noExchange.Load() {
		switch err := exchange(tmp, p); {
		case err == nil:
			// tmp now names the replaced object's inode; a failed
			// unlink only leaves it behind (see Write).
			unlink(tmp)
			return nil
		case errors.Is(err, errNoExchange):
			f.noExchange.Store(true)
		case !errors.Is(err, fs.ErrNotExist): // ENOENT: a first write
			return err
		}
	}
	return rename(tmp, p)
}

// Copy implements Copier with a hard link: the destination shares the
// source's inode, so the copy is O(1) and survives later Writes of
// either key (Write publishes a fresh inode by exchange or rename,
// leaving linked snapshots untouched). Filesystems without link support
// fall back to a byte copy on the storage device — still no round trip
// through the engine's staging memory.
func (f *FileTier) Copy(ctx context.Context, srcKey, dstKey string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	src, dst := f.path(srcKey), f.path(dstKey)
	if _, err := os.Stat(src); err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("%w: %s/%s", ErrNotFound, f.name, srcKey)
		}
		return err
	}
	if err := os.Remove(dst); err != nil && !os.IsNotExist(err) {
		return err
	}
	if err := os.Link(src, dst); err == nil {
		return nil
	}
	// Link failed (unsupported filesystem): copy within the tier.
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return f.Write(ctx, dstKey, data)
}

// Delete implements Tier.
func (f *FileTier) Delete(ctx context.Context, key string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	var buf [pathBuf]byte
	p, err := f.objPath(buf[:0], key)
	if err != nil {
		return err
	}
	if err := unlink(p); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("storage: delete %s: %w", p.String(), err)
	}
	return nil
}

// Size implements Tier.
func (f *FileTier) Size(ctx context.Context, key string) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	fi, err := os.Stat(f.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			return 0, fmt.Errorf("%w: %s/%s", ErrNotFound, f.name, key)
		}
		return 0, err
	}
	return fi.Size(), nil
}

// Keys implements Tier.
func (f *FileTier) Keys(ctx context.Context) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(f.dir)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() && !strings.HasSuffix(e.Name(), ".tmp") {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

// Stats implements Tier.
func (f *FileTier) Stats() Stats { return f.snapshot() }

// Throttled decorates a Tier with read/write bandwidth limits, a fixed
// per-operation latency, and a contention gate reproducing the Fig. 4
// behaviour of shared devices. It is how a laptop impersonates Table 1's
// NVMe (6.9/5.3 GB/s) or PFS (3.6/3.6 GB/s) at scaled-down rates.
type Throttled struct {
	inner     Tier
	readLim   *ratelimit.Limiter
	writeLim  *ratelimit.Limiter
	gate      *ratelimit.Gate
	opLatency func() // called once per op to impose fixed latency
}

// ThrottleConfig configures a Throttled tier.
type ThrottleConfig struct {
	ReadBW  float64 // bytes/second; must be > 0
	WriteBW float64 // bytes/second; must be > 0
	// ReadBurst/WriteBurst are the token-bucket capacities in bytes
	// (0 = a quarter second's worth). Transfers much smaller than the
	// burst complete at memory speed, so tests that need *observed*
	// bandwidth to track the configured rate should set bursts below the
	// object size.
	ReadBurst  float64
	WriteBurst float64
	// Curve models aggregate efficiency under n concurrent ops; nil = ideal.
	Curve ratelimit.EfficiencyCurve
	// Clock for the limiters; nil = wall clock.
	Clock ratelimit.Clock
}

// NewThrottled wraps inner with the given throttle configuration.
func NewThrottled(inner Tier, cfg ThrottleConfig) *Throttled {
	if cfg.ReadBW <= 0 || cfg.WriteBW <= 0 {
		panic("storage: throttle bandwidths must be positive")
	}
	if cfg.ReadBurst <= 0 {
		cfg.ReadBurst = cfg.ReadBW / 4
	}
	if cfg.WriteBurst <= 0 {
		cfg.WriteBurst = cfg.WriteBW / 4
	}
	return &Throttled{
		inner:    inner,
		readLim:  ratelimit.NewLimiter(cfg.ReadBW, cfg.ReadBurst, cfg.Clock),
		writeLim: ratelimit.NewLimiter(cfg.WriteBW, cfg.WriteBurst, cfg.Clock),
		gate:     ratelimit.NewGate(cfg.Curve),
	}
}

// Name implements Tier.
func (t *Throttled) Name() string { return t.inner.Name() }

// SetRates changes the emulated read/write bandwidths mid-run (both must
// be positive), preserving accumulated tokens. This is how experiments
// simulate a tier slowing down under external load — e.g. to watch
// adaptive placement replan and the eviction writes converge onto the new
// plan.
func (t *Throttled) SetRates(readBW, writeBW float64) {
	if readBW <= 0 || writeBW <= 0 {
		panic("storage: throttle bandwidths must be positive")
	}
	t.readLim.SetRate(readBW)
	t.writeLim.SetRate(writeBW)
}

// throttle charges n bytes against lim, inflated by the current contention
// penalty: with k concurrent streams and curve eff, the device-level cost
// of moving n bytes for this stream is n/eff(k) (the aggregate stays
// B*eff(k) while the limiter itself enforces B).
func (t *Throttled) throttle(ctx context.Context, lim *ratelimit.Limiter, n int) error {
	share, release := t.gate.Enter(1)
	defer release()
	// share = eff(k)/k for one stream of a unit device; the fair-share
	// slowdown (1/k) is already produced by k streams drawing from one
	// limiter concurrently, so only the efficiency loss is added here.
	k := t.gate.Active()
	if k < 1 {
		k = 1
	}
	eff := share * float64(k) // = eff(k)
	charged := int64(float64(n) / eff)
	return lim.WaitN(ctx, charged)
}

// Read implements Tier.
func (t *Throttled) Read(ctx context.Context, key string, dst []byte) error {
	if err := t.throttle(ctx, t.readLim, len(dst)); err != nil {
		return err
	}
	return t.inner.Read(ctx, key, dst)
}

// ReadVec implements VectoredReader: the batch is charged as one
// transfer of its total size (a coalesced read crosses the device link
// once), then delegates to the inner tier's vectored path when it has
// one.
func (t *Throttled) ReadVec(ctx context.Context, keys []string, dsts [][]byte) error {
	total := 0
	for _, d := range dsts {
		total += len(d)
	}
	if err := t.throttle(ctx, t.readLim, total); err != nil {
		return err
	}
	return ReadVec(ctx, t.inner, keys, dsts)
}

// ReadObject implements ObjectReader. The transfer is charged after the
// bytes are read (their count is unknown beforehand); aggregate
// bandwidth over many operations matches the configured rate exactly.
func (t *Throttled) ReadObject(ctx context.Context, key string) ([]byte, error) {
	data, err := ReadWholeObject(ctx, t.inner, key)
	if err != nil {
		return nil, err
	}
	if err := t.throttle(ctx, t.readLim, len(data)); err != nil {
		return nil, err
	}
	return data, nil
}

// Write implements Tier.
func (t *Throttled) Write(ctx context.Context, key string, src []byte) error {
	if err := t.throttle(ctx, t.writeLim, len(src)); err != nil {
		return err
	}
	return t.inner.Write(ctx, key, src)
}

// Copy implements Copier by delegating to the inner tier. A server-side
// copy never crosses the host link, so it is deliberately not throttled.
func (t *Throttled) Copy(ctx context.Context, srcKey, dstKey string) error {
	if c, ok := t.inner.(Copier); ok {
		return c.Copy(ctx, srcKey, dstKey)
	}
	return ErrCopyUnsupported
}

// Delete implements Tier.
func (t *Throttled) Delete(ctx context.Context, key string) error {
	return t.inner.Delete(ctx, key)
}

// Size implements Tier.
func (t *Throttled) Size(ctx context.Context, key string) (int64, error) {
	return t.inner.Size(ctx, key)
}

// Keys implements Tier.
func (t *Throttled) Keys(ctx context.Context) ([]string, error) {
	return t.inner.Keys(ctx)
}

// Stats implements Tier.
func (t *Throttled) Stats() Stats { return t.inner.Stats() }

// Unwrap returns the decorated tier.
func (t *Throttled) Unwrap() Tier { return t.inner }

// FaultTier injects failures for resilience testing: every Nth operation
// of the chosen kind fails with the given error.
type FaultTier struct {
	Tier
	mu         sync.Mutex
	FailEvery  int64 // fail ops where (op count % FailEvery) == 0; 0 disables
	Err        error
	ops        int64
	FailReads  bool
	FailWrites bool
}

// SetFailEvery rearms (or disarms, with 0) the injector. Unlike writing
// the field directly, it is safe while operations are in flight.
func (f *FaultTier) SetFailEvery(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.FailEvery = n
}

// shouldFail advances the op counter and reports whether to inject.
func (f *FaultTier) shouldFail() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.FailEvery <= 0 {
		return false
	}
	f.ops++
	return f.ops%f.FailEvery == 0
}

// Read implements Tier with read-fault injection.
func (f *FaultTier) Read(ctx context.Context, key string, dst []byte) error {
	if f.FailReads && f.shouldFail() {
		return f.Err
	}
	return f.Tier.Read(ctx, key, dst)
}

// Write implements Tier with write-fault injection.
func (f *FaultTier) Write(ctx context.Context, key string, src []byte) error {
	if f.FailWrites && f.shouldFail() {
		return f.Err
	}
	return f.Tier.Write(ctx, key, src)
}
