package tiercodec

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sync"

	"github.com/datastates/mlpoffload/internal/bufpool"
)

// Codec identifiers recorded in the object header. Decoding is driven by
// the header, never by the reader's configuration, so any codec-aware
// tier can read objects written under any codec — the property that
// keeps checkpoints restorable across codec changes.
const (
	// CodecRaw stores the payload verbatim (no compression). Also the id
	// an incompressible object is demoted to by the bypass.
	CodecRaw uint8 = 0
	// CodecFlate stores the payload byte-plane transposed and
	// DEFLATE-compressed as a whole. Read-only: no writer produces it any
	// more, the reader stays so earlier checkpoints keep restoring.
	CodecFlate uint8 = 1
	// CodecPlanes stores the payload split into byte planes, each raw or
	// entropy-coded on its own (planes.go). What "flate" specs write.
	CodecPlanes uint8 = 2
)

// codecName renders a codec id for errors and manifests.
func codecName(id uint8) string {
	switch id {
	case CodecRaw:
		return "raw"
	case CodecFlate:
		return "flate"
	case CodecPlanes:
		return "planes"
	default:
		return fmt.Sprintf("codec(%d)", id)
	}
}

// untranspose inverts the id-1 writer's whole-object byte-plane
// transpose: src holds all byte-0s of the stride-byte elements, then all
// byte-1s, and so on, then the len%stride tail verbatim.
func untranspose(dst, src []byte, stride int) {
	n := len(src) / stride
	for p := 0; p < stride; p++ {
		plane := src[p*n : (p+1)*n]
		for i := 0; i < n; i++ {
			dst[i*stride+p] = plane[i]
		}
	}
	copy(dst[n*stride:], src[n*stride:])
}

// inflater is a pooled DEFLATE decompressor: flate.NewReader allocates
// tens of KB of window and tables per call, Reset reuses them.
type inflater struct {
	src bytes.Reader
	fr  io.ReadCloser
}

var inflaters = sync.Pool{New: func() any {
	z := new(inflater)
	z.fr = flate.NewReader(&z.src)
	return z
}}

// decodeFlate decompresses and untransposes an id-1 payload into dst,
// which must have the exact raw length recorded in the object header.
func decodeFlate(dst, payload []byte, stride int) error {
	tp := bufpool.Get(len(dst))
	defer bufpool.Put(tp)
	z := inflaters.Get().(*inflater)
	defer inflaters.Put(z)
	z.src.Reset(payload)
	if err := z.fr.(flate.Resetter).Reset(&z.src, nil); err != nil {
		return fmt.Errorf("%w: flate stream: %v", ErrCorrupt, err)
	}
	n, err := io.ReadFull(z.fr, tp)
	if err != nil {
		return fmt.Errorf("%w: flate payload truncated at %d/%d bytes: %v", ErrCorrupt, n, len(dst), err)
	}
	// The stream must end exactly at rawLen.
	var one [1]byte
	if m, err := z.fr.Read(one[:]); m != 0 {
		return fmt.Errorf("%w: flate payload longer than raw length %d", ErrCorrupt, len(dst))
	} else if err != nil && err != io.EOF {
		return fmt.Errorf("%w: flate stream: %v", ErrCorrupt, err)
	}
	untranspose(dst, tp, stride)
	return nil
}
