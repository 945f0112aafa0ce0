package tiercodec

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"

	"github.com/datastates/mlpoffload/internal/bufpool"
)

// The plane-split payload (codec id 2). An object of stride-byte elements
// is split into its stride byte planes (plane p = byte p of every
// element), and each plane is stored raw or entropy-coded on its own:
//
//	directory  stride entries of 6 bytes, in storage order:
//	           plane index u8, mode u8 (0 raw, 1 coded), body length u32 LE
//	bodies     one per directory entry, back to back
//	tail       the len%stride bytes after the last whole element, verbatim
//
// FP32 optimizer state is why: its three mantissa planes are noise no
// coder shrinks, while the sign/exponent plane carries under half its
// bits. Raw planes go from the source straight to their final offset in
// the one pass that splits the object, and come back out of the wire
// buffer in the one pass that joins it — only the planes that pay for it
// ever meet the coder (huff.go).
const (
	planeRaw   uint8 = 0
	planeCoded uint8 = 1

	dirEntrySize = 6
	maxStride    = 8
)

// codableBits is the sampled entropy, in bits per byte, below which a
// plane is worth coding: at 7 bits the coder saves an eighth of the
// plane's wire bytes, about what its CPU costs against the tiers it
// exists for. Planes estimated above it are never gathered or coded.
const codableBits = 7.0

// sampleElems is how many evenly spaced elements the writer histograms
// to decide which planes to code; the estimate is good to a few
// hundredths of a bit.
const sampleElems = 4096

var errPlanes = errors.New("bad plane directory")

// codablePlanes returns the bitmask of planes whose sampled order-0
// entropy is under codableBits.
func codablePlanes(src []byte, stride, n int) (mask uint) {
	samples := min(n, sampleElems)
	var hist [maxStride][256]uint32
	for i := 0; i < samples; i++ {
		off := i * n / samples * stride
		for p, b := range src[off : off+stride] {
			hist[p][b]++
		}
	}
	for p := 0; p < stride; p++ {
		var sum float64 // Σ c·log2 c
		for _, c := range hist[p] {
			if c > 1 {
				sum += float64(c) * math.Log2(float64(c))
			}
		}
		if math.Log2(float64(samples))-sum/float64(samples) < codableBits {
			mask |= 1 << p
		}
	}
	return mask
}

// splitPlanes writes byte p of src's n stride-byte elements to planes[p].
func splitPlanes(planes [][]byte, src []byte, n int) {
	if len(planes) == 4 {
		p0, p1, p2, p3 := planes[0][:n], planes[1][:n], planes[2][:n], planes[3][:n]
		src = src[:4*n]
		for i := range p0 {
			w := binary.LittleEndian.Uint32(src[4*i:])
			p0[i], p1[i], p2[i], p3[i] = byte(w), byte(w>>8), byte(w>>16), byte(w>>24)
		}
		return
	}
	stride := len(planes)
	for p, plane := range planes {
		for i := range plane[:n] {
			plane[i] = src[i*stride+p]
		}
	}
}

// joinPlanes inverts splitPlanes into dst.
func joinPlanes(dst []byte, planes [][]byte, n int) {
	if len(planes) == 4 {
		p0, p1, p2, p3 := planes[0][:n], planes[1][:n], planes[2][:n], planes[3][:n]
		dst = dst[:4*n]
		for i := range p0 {
			w := uint32(p0[i]) | uint32(p1[i])<<8 | uint32(p2[i])<<16 | uint32(p3[i])<<24
			binary.LittleEndian.PutUint32(dst[4*i:], w)
		}
		return
	}
	stride := len(planes)
	for p, plane := range planes {
		for i, b := range plane[:n] {
			dst[i*stride+p] = b
		}
	}
}

// encodePlanes appends src's plane-split payload to buf (which holds the
// header and has room for len(src) more bytes plus a directory), or
// reports false when no plane is worth coding or the result would not be
// smaller than src — the caller then stores src raw.
func encodePlanes(buf, src []byte, stride int) ([]byte, bool) {
	n := len(src) / stride
	if n == 0 || n > math.MaxUint32 {
		return buf, false
	}
	coded := codablePlanes(src, stride, n)
	if coded == 0 {
		return buf, false
	}
	base := len(buf)
	dir := base
	out := buf[:base+stride*dirEntrySize]
	putEntry := func(p int, mode uint8, size int) {
		out[dir], out[dir+1] = uint8(p), mode
		binary.LittleEndian.PutUint32(out[dir+2:], uint32(size))
		dir += dirEntrySize
	}

	// Raw planes land in place; the others are gathered for the coder.
	var planes [maxStride][]byte
	gathered := bufpool.Get(n * bits.OnesCount(coded))
	defer bufpool.Put(gathered)
	for p, g := 0, 0; p < stride; p++ {
		if coded&(1<<p) == 0 {
			putEntry(p, planeRaw, n)
			out = out[:len(out)+n]
			planes[p] = out[len(out)-n:]
		} else {
			planes[p] = gathered[g : g+n]
			g += n
		}
	}
	splitPlanes(planes[:stride], src, n)

	for p := 0; p < stride; p++ {
		if coded&(1<<p) == 0 {
			continue
		}
		start := len(out)
		var ok bool
		if out, ok = appendHuff(out, planes[p], n); ok {
			putEntry(p, planeCoded, len(out)-start)
		} else { // the sample misjudged it
			out = append(out, planes[p]...)
			putEntry(p, planeRaw, n)
		}
	}
	out = append(out, src[n*stride:]...)
	if len(out)-base >= len(src) {
		return buf, false
	}
	return out, true
}

// decodePlanes decodes a plane-split payload into dst, whose length is
// the header's raw length. Every directory field is checked against the
// payload before it is used; scratch is bounded by len(dst).
func decodePlanes(dst, payload []byte, stride int) error {
	if stride > maxStride {
		return errPlanes
	}
	n := len(dst) / stride
	tail := len(dst) - n*stride
	if len(payload) < stride*dirEntrySize+tail {
		return errPlanes
	}
	bodies := payload[stride*dirEntrySize : len(payload)-tail]

	var planes [maxStride][]byte
	var seen uint
	for k := 0; k < stride; k++ {
		e := payload[k*dirEntrySize:]
		p, mode, size := int(e[0]), e[1], int(binary.LittleEndian.Uint32(e[2:]))
		if p >= stride || seen&(1<<p) != 0 || size > len(bodies) {
			return errPlanes
		}
		seen |= 1 << p
		body := bodies[:size]
		bodies = bodies[size:]
		switch mode {
		case planeRaw:
			if size != n {
				return errPlanes
			}
			planes[p] = body
		case planeCoded:
			planes[p] = bufpool.Get(n)
			defer bufpool.Put(planes[p])
			if err := decodeHuff(planes[p], body); err != nil {
				return err
			}
		default:
			return errPlanes
		}
	}
	if len(bodies) != 0 {
		return errPlanes
	}
	joinPlanes(dst, planes[:stride], n)
	copy(dst[n*stride:], payload[len(payload)-tail:])
	return nil
}
