// Package tiercodec provides transparent, composable storage.Tier
// middleware: every object written through a codec tier is encoded —
// optionally compressed, optionally integrity-protected — and decoded
// back on read, so the layers above keep operating on raw subgroup
// objects while the device moves fewer, checksummed bytes. The engine is
// bandwidth-bound on exactly those transfers (fetch, flush, checkpoint),
// so shrinking bytes-on-the-wire multiplies effective tier bandwidth
// across every path at once.
//
// # Object format
//
// Every encoded object is self-describing: a fixed 20-byte header
// (magic, format version, codec id, flags, plane stride, raw length,
// CRC32-C) followed by the encoded payload. Decoding is driven entirely
// by the header — a codec tier configured either way reads raw, plane-
// split and the earlier whole-object DEFLATE objects alike — which is
// what keeps checkpoints restorable bit-identically across codec
// reconfigurations and versions: only the *presence* of the middleware
// matters, never which codec wrote an object.
//
//	offset size field
//	0      4    magic "MTC1"
//	4      1    format version (1)
//	5      1    codec id (0 = raw, 1 = flate [read-only], 2 = planes)
//	6      1    flags (bit 0: payload has CRC32-C)
//	7      1    plane stride (0/1 = none; 4 for FP32, 2 for FP16)
//	8      8    raw (decoded) object length, little-endian
//	16     4    CRC32-C over header[0:16] + payload, little-endian
//
// # Compression
//
// A "flate" spec writes plane-split objects (codec id 2, planes.go): the
// payload is split into its stride byte planes, and each plane is stored
// raw or order-0 entropy-coded — chosen per object from a sampled byte
// histogram, because in FP32/FP16 streams only the sign/exponent plane
// is compressible and the mantissa planes are noise. An object with no
// plane worth coding, or one the coder cannot shrink, is stored raw
// (codec id 0) — incompressible data never grows past one header and
// never pays decoding on read. Codec id 1 (whole-object transpose +
// DEFLATE) is what this package wrote before; it is still read.
//
// # Where the CPU runs
//
// Write is Encode then WriteEncoded; Read is ReadEncoded then Decode.
// The halves are exported (storage.SplitTier) so the aio engine runs the
// codec's CPU outside the node-level tier lock and holds the lock for the
// device transfer alone.
//
// # Integrity
//
// With Integrity enabled the writer records a CRC32-C (Castagnoli) over
// header and payload; the reader verifies it before decoding and returns
// ErrCorrupt on mismatch, so a bit-rotted or torn object is detected
// instead of silently consumed. The engine retries corrupt demand
// fetches (transient, in-flight corruption re-reads clean) and fails
// the phase cleanly when corruption is persistent.
//
// # Accounting
//
// The decorator is transparent to callers — Read/Write move raw bytes,
// Size reports raw lengths — but it records the encoded size of every
// operation through storage.RecordWireBytes, which the aio engine
// attaches to each op. Bandwidth consumers (the placement estimator,
// per-class metrics) therefore keep seeing true device throughput while
// the raw/wire ratio is reported as the compression win.
//
// FaultTier (fault.go) completes the middleware set: a decorator that
// injects read/write errors, torn and corrupted objects, and latency
// spikes for resilience testing.
package tiercodec

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
	"sync/atomic"

	"github.com/datastates/mlpoffload/internal/bufpool"
	"github.com/datastates/mlpoffload/internal/storage"
)

// Magic identifies encoded objects.
const Magic uint32 = 0x3143544D // "MTC1" little-endian

// Version is the object format version.
const Version uint8 = 1

// HeaderSize is the fixed encoded-object header length.
const HeaderSize = 20

// flagCRC marks objects whose header records a CRC32-C.
const flagCRC uint8 = 1 << 0

// ErrCorrupt reports an object that failed integrity or structural
// validation on read: bad magic, truncated payload, or checksum
// mismatch. Callers distinguish it from transport errors to retry or
// fail cleanly instead of consuming garbage.
var ErrCorrupt = errors.New("tiercodec: corrupt object")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Spec selects the middleware configuration for one tier. The zero
// value disables the codec entirely (Enabled reports false).
type Spec struct {
	// Compression selects the codec: "" or "raw" stores payloads
	// verbatim (headers and integrity only), "flate" enables the
	// plane-split entropy codec (the name predates it and is what
	// manifests and command lines carry).
	Compression string
	// Stride is the byte-plane stride: 4 (FP32, the default) or 2
	// (FP16-dominant payloads). 1 treats the object as one plane.
	Stride int
	// Integrity records and verifies a CRC32-C per object.
	Integrity bool
}

// Enabled reports whether the spec selects any middleware at all.
func (s Spec) Enabled() bool { return s.Compression != "" || s.Integrity }

// String renders the spec in the form ParseSpec accepts.
func (s Spec) String() string {
	if !s.Enabled() {
		return ""
	}
	comp := s.Compression
	if comp == "" {
		comp = "raw"
	}
	if s.Integrity {
		comp += "+crc"
	}
	return comp
}

// normalize validates the spec and fills defaults.
func (s Spec) normalize() (Spec, error) {
	switch s.Compression {
	case "", "raw", "none", "flate":
		if s.Compression == "none" {
			s.Compression = "raw"
		}
	default:
		return s, fmt.Errorf("tiercodec: unknown compression %q (want raw or flate)", s.Compression)
	}
	switch s.Stride {
	case 0:
		s.Stride = 4
	case 1, 2, 4, 8:
	default:
		return s, fmt.Errorf("tiercodec: plane stride %d (want 1, 2, 4 or 8)", s.Stride)
	}
	return s, nil
}

// ParseSpec parses a textual codec spec: a compression name ("raw",
// "none", "flate") with an optional "+crc" integrity suffix. "" and
// "off" yield a disabled spec.
//
//	flate+crc   compression and integrity (the recommended setting)
//	flate       compression only
//	crc         integrity only
//	raw         header only (accounting without compression or CRC)
func ParseSpec(text string) (Spec, error) {
	var s Spec
	text = strings.TrimSpace(text)
	if text == "" || text == "off" {
		return s, nil
	}
	for i, part := range strings.Split(text, "+") {
		switch {
		case part == "crc":
			s.Integrity = true
		case i == 0:
			if name, _, hasLevel := strings.Cut(part, ":"); hasLevel {
				return s, fmt.Errorf("tiercodec: spec %q: DEFLATE levels are gone — the writer entropy-codes byte planes and has no level; write %q", text, name)
			}
			s.Compression = part
		default:
			return s, fmt.Errorf("tiercodec: bad spec %q", text)
		}
	}
	if s.Compression == "crc" { // "crc" alone: integrity without compression
		s.Compression = ""
		s.Integrity = true
	}
	if _, err := s.normalize(); err != nil {
		return s, err
	}
	return s, nil
}

// Stats counts the codec's work. Raw bytes are what callers moved,
// encoded bytes what the device saw (headers included); their ratio is
// the effective-bandwidth multiplier the codec bought.
type Stats struct {
	Objects         int64 // objects encoded (writes)
	Bypassed        int64 // writes stored raw by the incompressible bypass
	RawBytesIn      int64 // raw bytes written by callers
	EncodedBytesOut int64 // encoded bytes handed to the device
	RawBytesOut     int64 // raw bytes returned to readers
	EncodedBytesIn  int64 // encoded bytes read from the device
	IntegrityErrors int64 // reads failed by checksum/structure validation
	WriteRatio      float64
	ReadRatio       float64
}

// Tier is the codec middleware: a storage.Tier decorator encoding every
// object per its Spec on write and decoding by header on read. It
// preserves the inner tier's name (it is transparent to placement) and
// delegates server-side copies, which duplicate encoded bytes verbatim.
type Tier struct {
	inner storage.Tier
	spec  Spec

	objects  atomic.Int64
	bypassed atomic.Int64
	rawIn    atomic.Int64
	encOut   atomic.Int64
	rawOut   atomic.Int64
	encIn    atomic.Int64
	corrupt  atomic.Int64
	reads    atomic.Int64
	writes   atomic.Int64
}

// New wraps inner with the given codec spec. A disabled spec is
// rejected: wrap conditionally at the call site instead.
func New(inner storage.Tier, spec Spec) (*Tier, error) {
	if !spec.Enabled() {
		return nil, fmt.Errorf("tiercodec: spec selects no middleware")
	}
	ns, err := spec.normalize()
	if err != nil {
		return nil, err
	}
	return &Tier{inner: inner, spec: ns}, nil
}

// Unwrap returns the decorated tier.
func (t *Tier) Unwrap() storage.Tier { return t.inner }

// Spec returns the normalized codec spec.
func (t *Tier) Spec() Spec { return t.spec }

// Describe renders the tier's codec configuration ("flate+crc", ...).
func (t *Tier) Describe() string { return t.spec.String() }

// describer lets callers holding a plain storage.Tier ask whether it is
// codec middleware without importing this package's concrete type.
type describer interface{ Describe() string }

// Describe reports the codec configuration of a tier, "" when it is not
// codec middleware. Checkpoint manifests record it so a restore under a
// codec-less tier of encoded objects fails with a clear message instead
// of a size mismatch.
func Describe(t storage.Tier) string {
	if d, ok := t.(describer); ok {
		return d.Describe()
	}
	return ""
}

// Name implements storage.Tier; the decorator is transparent.
func (t *Tier) Name() string { return t.inner.Name() }

// Write implements storage.Tier: encode src per the spec and store the
// self-describing object.
func (t *Tier) Write(ctx context.Context, key string, src []byte) error {
	enc := t.Encode(src)
	defer bufpool.Put(enc)
	return t.WriteEncoded(ctx, key, enc)
}

// Encode implements storage.SplitTier: the CPU half of Write. It returns
// the complete encoded object (header, payload, CRC) in a pooled buffer
// the caller owns — recycle with bufpool.Put once WriteEncoded returns.
func (t *Tier) Encode(src []byte) []byte {
	stride := t.spec.Stride
	buf := bufpool.Get(HeaderSize + stride*dirEntrySize + len(src))[:HeaderSize]
	id := CodecRaw
	if t.spec.Compression == "flate" {
		if enc, ok := encodePlanes(buf, src, stride); ok {
			id, buf = CodecPlanes, enc
		} else {
			t.bypassed.Add(1)
		}
	}
	if id == CodecRaw {
		stride = 1
		buf = append(buf, src...)
	}
	t.putHeader(buf, id, uint8(stride), uint64(len(src)))
	return buf
}

// WriteEncoded implements storage.SplitTier: the transfer half of Write,
// storing an object Encode produced.
func (t *Tier) WriteEncoded(ctx context.Context, key string, enc []byte) error {
	// Run the inner write under a private wire cell: if a deeper codec
	// layer re-encodes this object, its (device-closer) count wins; the
	// resolved value propagates into the caller's cell exactly once.
	innerCtx, wc := storage.WithWireCount(ctx)
	if err := t.inner.Write(innerCtx, key, enc); err != nil {
		return err
	}
	wire := wc.Bytes()
	if wire == 0 {
		wire = int64(len(enc))
	}
	storage.RecordWireBytes(ctx, wire)
	t.objects.Add(1)
	t.writes.Add(1)
	t.rawIn.Add(int64(binary.LittleEndian.Uint64(enc[8:])))
	t.encOut.Add(int64(len(enc)))
	return nil
}

// putHeader fills buf's header in place and stamps the CRC when
// integrity is enabled. buf is header + payload.
func (t *Tier) putHeader(buf []byte, id, stride uint8, rawLen uint64) {
	le := binary.LittleEndian
	le.PutUint32(buf[0:], Magic)
	buf[4] = Version
	buf[5] = id
	buf[6] = 0
	buf[7] = stride
	le.PutUint64(buf[8:], rawLen)
	le.PutUint32(buf[16:], 0)
	if t.spec.Integrity {
		buf[6] |= flagCRC
		crc := crc32.Update(0, castagnoli, buf[:16])
		crc = crc32.Update(crc, castagnoli, buf[HeaderSize:])
		le.PutUint32(buf[16:], crc)
	}
}

// Read implements storage.Tier: fetch the encoded object, validate it,
// and decode into dst (whose length must equal the raw object length,
// per the Tier contract). The encoded staging buffer is recycled through
// internal/bufpool — a steady-state fetch stream decodes with zero
// per-read allocation.
func (t *Tier) Read(ctx context.Context, key string, dst []byte) error {
	enc, err := t.ReadEncoded(ctx, key)
	if err != nil {
		return err
	}
	defer bufpool.Put(enc)
	return t.Decode(key, enc, dst)
}

// Decode implements storage.SplitTier: the CPU half of Read. It validates
// enc (an object ReadEncoded returned) and decodes it into dst, whose
// length must equal the object's raw length; any structural or integrity
// failure is ErrCorrupt.
func (t *Tier) Decode(key string, enc, dst []byte) error {
	hdr, err := t.parseHeader(key, enc)
	if err != nil {
		return err
	}
	if hdr.rawLen != int64(len(dst)) {
		return t.fail(key, "raw length %d, caller expects %d", hdr.rawLen, len(dst))
	}
	if err := t.decodePayload(key, hdr, enc[HeaderSize:], dst); err != nil {
		return err
	}
	t.reads.Add(1)
	t.rawOut.Add(int64(len(dst)))
	t.encIn.Add(int64(len(enc)))
	return nil
}

// maxFlateExpansion bounds how much larger than its compressed payload
// a flate object's raw length may legitimately be: DEFLATE's format
// cannot exceed ~1032:1 (one distance/length pair per 258 output bytes
// at ~2 input bits minimum), so a header claiming more is corrupt by
// definition. This keeps the un-checksummed-header backstop *real* — a
// bit-rotted length field is rejected before anything allocates from it
// — while integrity-enabled objects are caught exactly by the CRC
// (which covers the header). maxPlanesExpansion is the same bound for
// plane-split objects, whose shortest code is one bit per byte.
const (
	maxFlateExpansion  = 1032
	maxPlanesExpansion = 8
)

// objHeader is a validated object header.
type objHeader struct {
	id     uint8
	stride int
	rawLen int64
}

// fail counts and returns a corruption error for key.
func (t *Tier) fail(key, format string, args ...any) error {
	t.corrupt.Add(1)
	return fmt.Errorf("%w: %s/%s: %s", ErrCorrupt, t.Name(), key, fmt.Sprintf(format, args...))
}

// parseHeader validates obj's fixed header — structure, CRC when
// flagged, and a hard bound on the claimed raw length — BEFORE any
// caller allocates or decodes based on its fields, so a bit-rotted
// header surfaces as ErrCorrupt rather than a runaway allocation.
func (t *Tier) parseHeader(key string, obj []byte) (objHeader, error) {
	if len(obj) < HeaderSize {
		return objHeader{}, t.fail(key, "short object (%d bytes)", len(obj))
	}
	le := binary.LittleEndian
	if le.Uint32(obj[0:]) != Magic {
		return objHeader{}, t.fail(key, "no codec header (magic %#x; object not written through the codec tier?)", le.Uint32(obj[0:]))
	}
	if obj[4] != Version {
		return objHeader{}, t.fail(key, "unsupported format version %d", obj[4])
	}
	hdr := objHeader{id: obj[5], stride: int(obj[7])}
	flags := obj[6]
	rawLen := le.Uint64(obj[8:])
	if flags&flagCRC != 0 {
		want := le.Uint32(obj[16:])
		crc := crc32.Update(0, castagnoli, obj[:16])
		crc = crc32.Update(crc, castagnoli, obj[HeaderSize:])
		if crc != want {
			return objHeader{}, t.fail(key, "CRC32-C mismatch (stored %#x, computed %#x)", want, crc)
		}
	}
	payloadLen := uint64(len(obj) - HeaderSize)
	// Structural length validation per codec — before any caller
	// allocates from the claimed length, so a rotted length field in an
	// un-checksummed header surfaces as ErrCorrupt, never as a runaway
	// allocation.
	var maxRaw uint64
	switch hdr.id {
	case CodecRaw:
		if rawLen != payloadLen {
			return objHeader{}, t.fail(key, "raw payload %d bytes, header claims %d", payloadLen, rawLen)
		}
		maxRaw = payloadLen
	case CodecFlate:
		maxRaw = payloadLen*maxFlateExpansion + 64
	case CodecPlanes:
		maxRaw = payloadLen * maxPlanesExpansion
	default:
		return objHeader{}, t.fail(key, "unknown codec id %d (%s)", hdr.id, codecName(hdr.id))
	}
	if rawLen > maxRaw {
		return objHeader{}, t.fail(key, "raw length %d impossible for a %d-byte %s payload", rawLen, payloadLen, codecName(hdr.id))
	}
	hdr.rawLen = int64(rawLen)
	if hdr.stride < 1 {
		hdr.stride = 1
	}
	return hdr, nil
}

// decodePayload decodes payload into dst (len(dst) == hdr.rawLen)
// according to the validated header.
func (t *Tier) decodePayload(key string, hdr objHeader, payload, dst []byte) error {
	var err error
	switch hdr.id {
	case CodecRaw:
		copy(dst, payload)
	case CodecFlate:
		err = decodeFlate(dst, payload, hdr.stride)
	case CodecPlanes:
		if err = decodePlanes(dst, payload, hdr.stride); err != nil {
			err = fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	if err != nil {
		t.corrupt.Add(1)
		return fmt.Errorf("%s/%s: %w", t.Name(), key, err)
	}
	return nil
}

// ReadObject implements storage.ObjectReader: one inner fetch, header
// validated (CRC included) before the raw buffer is allocated, decoded
// into a fresh buffer of the header's raw length. Size-then-Read
// callers going through storage.ReadWholeObject therefore move the
// encoded object across the device once, not twice, and keep the
// whole-object atomicity guarantee even through stacked codec layers.
func (t *Tier) ReadObject(ctx context.Context, key string) ([]byte, error) {
	obj, err := t.ReadEncoded(ctx, key)
	if err != nil {
		return nil, err
	}
	defer bufpool.Put(obj)
	hdr, err := t.parseHeader(key, obj)
	if err != nil {
		return nil, err
	}
	dst := bufpool.Get(int(hdr.rawLen))
	if err := t.decodePayload(key, hdr, obj[HeaderSize:], dst); err != nil {
		bufpool.Put(dst)
		return nil, err
	}
	t.reads.Add(1)
	t.rawOut.Add(int64(len(dst)))
	t.encIn.Add(int64(len(obj)))
	return dst, nil
}

// Delete implements storage.Tier.
func (t *Tier) Delete(ctx context.Context, key string) error {
	return t.inner.Delete(ctx, key)
}

// Size implements storage.Tier, reporting the *raw* (decoded) length so
// size-based callers (checkpoint Verify, tooling) stay codec-agnostic.
// It must fetch the object to read its header, so it is a cold-path
// call; EncodedSize returns the device-level size cheaply, and readers
// that want the bytes anyway should use ReadObject (one fetch).
func (t *Tier) Size(ctx context.Context, key string) (int64, error) {
	obj, err := t.ReadEncoded(ctx, key)
	if err != nil {
		return 0, err
	}
	defer bufpool.Put(obj)
	hdr, err := t.parseHeader(key, obj)
	if err != nil {
		return 0, err
	}
	return hdr.rawLen, nil
}

// ReadEncoded implements storage.SplitTier: the transfer half of Read.
// It fetches this layer's whole encoded object from the inner tier into
// a pooled buffer the caller owns, and records the device-level wire
// count into the caller's cell: a deeper codec layer's measurement
// (taken under a private nested cell) wins over this layer's own object
// size, so stacked layers always propagate the count closest to the
// device.
func (t *Tier) ReadEncoded(ctx context.Context, key string) ([]byte, error) {
	innerCtx, wc := storage.WithWireCount(ctx)
	obj, err := storage.ReadWholeObject(innerCtx, t.inner, key)
	if err != nil {
		return nil, err
	}
	wire := wc.Bytes()
	if wire == 0 {
		wire = int64(len(obj))
	}
	storage.RecordWireBytes(ctx, wire)
	return obj, nil
}

// EncodedSize returns the stored (wire) size of key.
func (t *Tier) EncodedSize(ctx context.Context, key string) (int64, error) {
	return t.inner.Size(ctx, key)
}

// Keys implements storage.Tier.
func (t *Tier) Keys(ctx context.Context) ([]string, error) {
	return t.inner.Keys(ctx)
}

// Stats implements storage.Tier with *raw* byte counts — the decorator
// is transparent, so its traffic stats mirror what callers moved. The
// codec's own accounting is CodecStats.
func (t *Tier) Stats() storage.Stats {
	return storage.Stats{
		BytesRead:    t.rawOut.Load(),
		BytesWritten: t.rawIn.Load(),
		Reads:        t.reads.Load(),
		Writes:       t.writes.Load(),
	}
}

// CodecStats returns the codec's raw-vs-encoded accounting.
func (t *Tier) CodecStats() Stats {
	s := Stats{
		Objects:         t.objects.Load(),
		Bypassed:        t.bypassed.Load(),
		RawBytesIn:      t.rawIn.Load(),
		EncodedBytesOut: t.encOut.Load(),
		RawBytesOut:     t.rawOut.Load(),
		EncodedBytesIn:  t.encIn.Load(),
		IntegrityErrors: t.corrupt.Load(),
	}
	if s.EncodedBytesOut > 0 {
		s.WriteRatio = float64(s.RawBytesIn) / float64(s.EncodedBytesOut)
	}
	if s.EncodedBytesIn > 0 {
		s.ReadRatio = float64(s.RawBytesOut) / float64(s.EncodedBytesIn)
	}
	return s
}

// Copy implements storage.Copier by delegating to the inner tier: a
// server-side copy duplicates the encoded bytes (header included)
// verbatim, which is exactly what a snapshot needs — the copy decodes
// identically to its source. Inner tiers without the capability report
// ErrCopyUnsupported so storage.TryCopy falls back to a staged
// read+write through the codec.
func (t *Tier) Copy(ctx context.Context, srcKey, dstKey string) error {
	if c, ok := t.inner.(storage.Copier); ok {
		return c.Copy(ctx, srcKey, dstKey)
	}
	return storage.ErrCopyUnsupported
}
