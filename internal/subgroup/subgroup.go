// Package subgroup implements the unit of offloading in ZeRO-3-style
// training: each rank's model shard is decomposed into fixed-size
// "subgroups" of parameters, and the FP32 optimizer state of one subgroup
// (master parameters, momentum, variance — 12 bytes/param) is the object
// that moves between host memory and third-level storage tiers.
//
// The baseline additionally serializes FP32 gradients with the subgroup
// (16 bytes/param on the wire), while MLP-Offload keeps FP16 gradients in
// the host accumulation buffer and never writes them to storage — the
// serialization format supports both layouts so the engines can be compared
// on identical plumbing.
package subgroup

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/datastates/mlpoffload/internal/f32view"
	"github.com/datastates/mlpoffload/internal/fp16"
	"github.com/datastates/mlpoffload/internal/optim"
)

// Magic identifies serialized subgroup objects.
const Magic uint32 = 0x4D4C5030 // "MLP0"

// Version is the on-wire format version.
const Version uint16 = 1

// Flags in the serialized header.
const (
	// FlagHasGrads32 marks objects that carry FP32 gradients (baseline
	// layout).
	FlagHasGrads32 uint16 = 1 << 0
)

// HeaderSize is the fixed serialized header length in bytes.
const HeaderSize = 4 + 2 + 2 + 4 + 4 // magic, version, flags, id, count

// ErrCorrupt reports a malformed serialized object.
var ErrCorrupt = errors.New("subgroup: corrupt serialized object")

// Subgroup is one shard unit: optimizer state plus the host-resident FP16
// gradient accumulation slice for this subgroup.
type Subgroup struct {
	ID    int
	State *optim.State
	// Grads16 is the FP16 gradient accumulation buffer for this subgroup.
	// MLP-Offload keeps it on the host across the backward pass and
	// converts it on the fly during the update.
	Grads16 []fp16.Bits
	// Grads32 is the upscaled FP32 gradient buffer used by the baseline
	// path (populated during backward, serialized to storage).
	Grads32 []float32
	// Backing, when non-nil, is the pooled serialized buffer that
	// State's slices currently alias: MapState adopted a fetched object
	// zero-copy, so Backing[:StateBytes(Len())] *is* the live serialized
	// form of the state at all times (the header is untouched and the
	// payload sections are the State slices themselves). The engine owns
	// the lifecycle — it sets Backing on adoption and returns the buffer
	// to its pool only after the state has been flushed back or
	// discarded; other packages must treat the field as opaque.
	Backing []byte
}

// New creates a subgroup with n zero-initialized parameters.
func New(id, n int) *Subgroup {
	return &Subgroup{
		ID:      id,
		State:   optim.NewState(make([]float32, n)),
		Grads16: make([]fp16.Bits, n),
	}
}

// Len returns the parameter count. It stays valid while the optimizer
// state is offloaded (State == nil): the host-resident FP16 gradient
// buffer always spans the subgroup.
func (s *Subgroup) Len() int { return len(s.Grads16) }

// StateBytes returns the serialized size without gradients (12 B/param +
// header).
func StateBytes(n int) int { return HeaderSize + n*12 }

// StateGradBytes returns the serialized size with FP32 gradients
// (16 B/param + header).
func StateGradBytes(n int) int { return HeaderSize + n*16 }

// Key returns the storage key for a subgroup of a rank.
func Key(rank, id int) string { return fmt.Sprintf("rank%03d-sg%05d.opt", rank, id) }

// EnsureGrads32 allocates the FP32 gradient buffer on first use.
func (s *Subgroup) EnsureGrads32() {
	if s.Grads32 == nil {
		s.Grads32 = make([]float32, s.Len())
	}
}

// UpscaleGrads converts the FP16 accumulation buffer into the FP32 buffer
// (the baseline's backward-pass conversion).
func (s *Subgroup) UpscaleGrads() {
	s.EnsureGrads32()
	fp16.Decode(s.Grads32, s.Grads16)
}

// Marshal serializes the subgroup into dst, which must have capacity for
// the exact size (StateBytes or StateGradBytes depending on withGrads32).
// It returns the number of bytes written.
func (s *Subgroup) Marshal(dst []byte, withGrads32 bool) (int, error) {
	n := s.Len()
	want := StateBytes(n)
	var flags uint16
	if withGrads32 {
		want = StateGradBytes(n)
		flags |= FlagHasGrads32
		if len(s.Grads32) != n {
			return 0, fmt.Errorf("subgroup %d: FP32 grads not populated", s.ID)
		}
	}
	if len(dst) < want {
		return 0, fmt.Errorf("subgroup %d: dst %d < needed %d", s.ID, len(dst), want)
	}
	s.putHeader(dst, flags)
	off := HeaderSize
	off = putF32(dst, off, s.State.Params)
	off = putF32(dst, off, s.State.M)
	off = putF32(dst, off, s.State.V)
	if withGrads32 {
		off = putF32(dst, off, s.Grads32)
	}
	return off, nil
}

// MarshalInit writes the subgroup's initial object into dst — master
// parameters params (len == Len()) and zero moments — without a State:
// the bytes Marshal(dst, false) writes for a fresh state holding those
// parameters. The moments are cleared explicitly, so dst may be a
// recycled buffer. It returns the number of bytes written.
func (s *Subgroup) MarshalInit(dst []byte, params []float32) (int, error) {
	n := s.Len()
	if len(params) != n {
		return 0, fmt.Errorf("subgroup %d: params %d != %d", s.ID, len(params), n)
	}
	want := StateBytes(n)
	if len(dst) < want {
		return 0, fmt.Errorf("subgroup %d: dst %d < needed %d", s.ID, len(dst), want)
	}
	s.putHeader(dst, 0)
	off := putF32(dst, HeaderSize, params)
	clear(dst[off:want])
	return want, nil
}

// putHeader writes the serialized header for this subgroup.
func (s *Subgroup) putHeader(dst []byte, flags uint16) {
	le := binary.LittleEndian
	le.PutUint32(dst[0:], Magic)
	le.PutUint16(dst[4:], Version)
	le.PutUint16(dst[6:], flags)
	le.PutUint32(dst[8:], uint32(s.ID))
	le.PutUint32(dst[12:], uint32(s.Len()))
}

// validateHeader checks src's serialized header against this subgroup
// and returns whether the object carries FP32 gradients. It guarantees
// len(src) covers the full object the header describes, so callers may
// index the payload sections without further bounds checks — the
// property MapState's aliasing safety rests on.
func (s *Subgroup) validateHeader(src []byte) (hasGrads bool, err error) {
	if len(src) < HeaderSize {
		return false, fmt.Errorf("%w: short header (%d bytes)", ErrCorrupt, len(src))
	}
	le := binary.LittleEndian
	if le.Uint32(src[0:]) != Magic {
		return false, fmt.Errorf("%w: bad magic %#x", ErrCorrupt, le.Uint32(src[0:]))
	}
	if v := le.Uint16(src[4:]); v != Version {
		return false, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	flags := le.Uint16(src[6:])
	if flags&^FlagHasGrads32 != 0 {
		return false, fmt.Errorf("%w: unknown flags %#x", ErrCorrupt, flags)
	}
	id := int(le.Uint32(src[8:]))
	n := int(le.Uint32(src[12:]))
	if id != s.ID {
		return false, fmt.Errorf("%w: object is subgroup %d, expected %d", ErrCorrupt, id, s.ID)
	}
	if n != s.Len() {
		return false, fmt.Errorf("%w: object has %d params, subgroup holds %d", ErrCorrupt, n, s.Len())
	}
	want := StateBytes(n)
	hasGrads = flags&FlagHasGrads32 != 0
	if hasGrads {
		want = StateGradBytes(n)
	}
	if len(src) < want {
		return false, fmt.Errorf("%w: body %d < needed %d", ErrCorrupt, len(src), want)
	}
	return hasGrads, nil
}

// Unmarshal restores the subgroup state from src by copying (bulk
// little-endian conversion; on little-endian hosts a straight memmove).
// A nil State is allocated; otherwise its buffers must already be
// sized. ID and length are validated against the header.
func (s *Subgroup) Unmarshal(src []byte) error {
	hasGrads, err := s.validateHeader(src)
	if err != nil {
		return err
	}
	n := s.Len()
	if s.State == nil {
		s.State = &optim.State{
			Params: make([]float32, n),
			M:      make([]float32, n),
			V:      make([]float32, n),
		}
	}
	off := HeaderSize
	off = getF32(src, off, s.State.Params)
	off = getF32(src, off, s.State.M)
	off = getF32(src, off, s.State.V)
	if hasGrads {
		s.EnsureGrads32()
		getF32(src, off, s.Grads32)
	}
	return nil
}

// MapState adopts a serialized gradient-less object zero-copy: after
// validating the header it points State's Params/M/V slices directly at
// src's payload sections, so the Adam update then runs *in place* over
// the fetched bytes and src[:StateBytes(Len())] remains the live
// serialized form throughout (the header bytes are never touched).
//
// It returns aliased=false — with the subgroup untouched and no error —
// when the zero-copy contract cannot hold: the platform is big-endian,
// the payload is misaligned, or the object carries FP32 gradients
// (whose trailing section the in-place layout does not map). Callers
// then fall back to Unmarshal. On err != nil the subgroup is untouched;
// the validated header guarantees the aliased slices never extend past
// the object bounds, corrupt headers included.
//
// The caller owns the aliasing discipline: src must stay live, pinned
// and unrecycled until the state is flushed or discarded (the engine
// records it in Backing and returns it to the fetch pool only after the
// flush lands).
func (s *Subgroup) MapState(src []byte) (aliased bool, err error) {
	hasGrads, err := s.validateHeader(src)
	if err != nil {
		return false, err
	}
	if hasGrads {
		return false, nil
	}
	n := s.Len()
	v, ok := f32view.View(src[HeaderSize : HeaderSize+12*n])
	if !ok {
		return false, nil
	}
	s.State = &optim.State{
		Params: v[0:n:n],
		M:      v[n : 2*n : 2*n],
		V:      v[2*n : 3*n : 3*n],
	}
	return true, nil
}

// ReadParams extracts only the master parameters of a serialized object
// into dst (len dst == Len()) without materializing the rest of the
// state — the zero-copy read path of GatherParams and restore. The
// header is validated exactly like Unmarshal's.
func (s *Subgroup) ReadParams(dst []float32, src []byte) error {
	if _, err := s.validateHeader(src); err != nil {
		return err
	}
	if len(dst) != s.Len() {
		return fmt.Errorf("subgroup %d: params dst %d != %d", s.ID, len(dst), s.Len())
	}
	f32view.Decode(dst, src[HeaderSize:HeaderSize+4*s.Len()])
	return nil
}

// PeekHeader inspects a serialized object without restoring it.
func PeekHeader(src []byte) (id, n int, hasGrads32 bool, err error) {
	if len(src) < HeaderSize {
		return 0, 0, false, fmt.Errorf("%w: short header", ErrCorrupt)
	}
	le := binary.LittleEndian
	if le.Uint32(src[0:]) != Magic {
		return 0, 0, false, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	return int(le.Uint32(src[8:])), int(le.Uint32(src[12:])),
		le.Uint16(src[6:])&FlagHasGrads32 != 0, nil
}

// putF32/getF32 move one payload section through the f32view bulk
// kernels: a single memmove on aligned little-endian buffers, an 8-wide
// unrolled conversion otherwise — never an element-at-a-time loop.
func putF32(dst []byte, off int, src []float32) int {
	f32view.Encode(dst[off:off+4*len(src)], src)
	return off + 4*len(src)
}

func getF32(src []byte, off int, dst []float32) int {
	f32view.Decode(dst, src[off:off+4*len(dst)])
	return off + 4*len(dst)
}

// Shard is a rank's full set of subgroups.
type Shard struct {
	Rank      int
	Subgroups []*Subgroup
}

// NewShard splits params parameters of rank into subgroups of size
// subgroupParams (the last subgroup may be smaller). The subgroups carry
// their ID, length and FP16 gradient buffer but no optimizer state
// (State == nil): the shard's FP32 state is the part that does not fit
// in host memory, so its owner writes each subgroup's initial object
// (MarshalInit) straight to storage instead.
func NewShard(rank int, params int64, subgroupParams int64) *Shard {
	if params < 0 || subgroupParams <= 0 {
		panic("subgroup: invalid shard dimensions")
	}
	count := int((params + subgroupParams - 1) / subgroupParams)
	sh := &Shard{Rank: rank, Subgroups: make([]*Subgroup, count)}
	for i := 0; i < count; i++ {
		n := subgroupParams
		if rem := params - int64(i)*subgroupParams; rem < n {
			n = rem
		}
		sh.Subgroups[i] = &Subgroup{ID: i, Grads16: make([]fp16.Bits, n)}
	}
	return sh
}

// Params returns the total parameter count of the shard.
func (sh *Shard) Params() int64 {
	var total int64
	for _, sg := range sh.Subgroups {
		total += int64(sg.Len())
	}
	return total
}

// MaxSubgroupLen returns the largest subgroup parameter count (buffer
// sizing).
func (sh *Shard) MaxSubgroupLen() int {
	max := 0
	for _, sg := range sh.Subgroups {
		if sg.Len() > max {
			max = sg.Len()
		}
	}
	return max
}
