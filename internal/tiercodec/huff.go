package tiercodec

import (
	"encoding/binary"
	"errors"
	"slices"
)

// Order-0 entropy coder for one byte plane: canonical Huffman, coded in
// independent blocks so each region of a plane (master parameters, first
// moments, second moments have different exponent distributions) gets its
// own code table — which also lets a reader decode several planes a
// block at a time (decodePlanes). A coded plane body is a sequence of
// blocks covering huffBlock plane bytes each (the last one fewer):
//
//	u32 LE  length of the rest of the block (table + bitstream)
//	128 B   code lengths of symbols 0..255, 4 bits each (low nibble first)
//	...     bitstream, MSB-first, zero-padded to a byte
//
// Codes are limited to huffMaxBits so the decoder is one table lookup per
// symbol, and every table must be a complete prefix code (Kraft sum
// exactly 1): then every bit pattern decodes to some symbol, and a
// corrupt stream can only be caught — never run the decoder out of its
// tables. Stdlib only; no LZ stage, because the planes this codes are
// exponent bytes whose redundancy is their distribution, not repeats.
const (
	huffBlock      = 1 << 16
	huffMaxBits    = 12
	huffTableBytes = 128
	huffBlockHead  = 4 + huffTableBytes
)

var errHuff = errors.New("bad entropy-coded plane")

// huffLengths computes length-limited Huffman code lengths for hist and
// returns the exact size in bits of the block coded with them.
func huffLengths(hist *[256]uint32, lens *[256]uint8) (bits int) {
	// Symbols in use, ascending by (count, symbol).
	var keys [256]uint64
	n := 0
	for s, c := range hist {
		if c != 0 {
			keys[n] = uint64(c)<<8 | uint64(s)
			n++
		}
	}
	*lens = [256]uint8{}
	if n == 1 {
		// A complete code needs two leaves: a never-emitted sibling.
		s := uint8(keys[0])
		lens[s], lens[s^1] = 1, 1
		return int(hist[s])
	}
	slices.Sort(keys[:n])

	// Moffat–Katajainen in-place minimum-redundancy lengths: w[i] starts
	// as the i-th smallest weight and ends as that leaf's depth.
	var w [256]int
	for i := 0; i < n; i++ {
		w[i] = int(keys[i] >> 8)
	}
	w[0] += w[1]
	root, leaf := 0, 2
	for next := 1; next < n-1; next++ {
		for pick := 0; pick < 2; pick++ { // the two lightest of (internal nodes, leaves)
			var v int
			if leaf >= n || (root < next && w[root] < w[leaf]) {
				v, w[root] = w[root], next
				root++
			} else {
				v = w[leaf]
				leaf++
			}
			if pick == 0 {
				w[next] = v
			} else {
				w[next] += v
			}
		}
	}
	w[n-2] = 0
	for next := n - 3; next >= 0; next-- {
		w[next] = w[w[next]] + 1
	}
	avail, used, depth := 1, 0, 0
	root = n - 2
	for next := n - 1; avail > 0; {
		for root >= 0 && w[root] == depth {
			used++
			root--
		}
		for avail > used {
			w[next] = depth
			next--
			avail--
		}
		avail, used, depth = 2*used, 0, depth+1
	}

	// Limit to huffMaxBits: clamp, then repair the Kraft sum by moving
	// one leaf down a level per excess unit.
	var count [huffMaxBits + 1]int
	kraft := 0
	for i := 0; i < n; i++ {
		l := min(w[i], huffMaxBits)
		count[l]++
		kraft += 1 << (huffMaxBits - l)
	}
	for ; kraft > 1<<huffMaxBits; kraft-- {
		count[huffMaxBits]--
		for l := huffMaxBits - 1; l > 0; l-- {
			if count[l] > 0 {
				count[l]--
				count[l+1] += 2
				break
			}
		}
	}
	// Rarest symbols take the longest codes.
	i := 0
	for l := huffMaxBits; l >= 1; l-- {
		for c := count[l]; c > 0; c-- {
			s := uint8(keys[i])
			lens[s] = uint8(l)
			bits += l * int(hist[s])
			i++
		}
	}
	return bits
}

// huffCodes assigns canonical codes (by length, then symbol) and reports
// whether lens is a complete prefix code.
func huffCodes(lens *[256]uint8, codes *[256]uint16) bool {
	var count [huffMaxBits + 2]int
	for _, l := range lens {
		if l > huffMaxBits {
			return false
		}
		count[l]++
	}
	var next [huffMaxBits + 2]int
	code, kraft := 0, 0
	for l := 1; l <= huffMaxBits; l++ {
		next[l] = code
		code = (code + count[l]) << 1
		kraft += count[l] << (huffMaxBits - l)
	}
	for s, l := range lens {
		if l != 0 {
			codes[s] = uint16(next[l])
			next[l]++
		}
	}
	return kraft == 1<<huffMaxBits
}

// appendHuff appends plane's coded body to dst, or reports false once the
// body would reach limit bytes (the caller stores the plane raw instead).
// It never grows dst past len(dst)+limit.
func appendHuff(dst, plane []byte, limit int) ([]byte, bool) {
	base := len(dst)
	var lens [256]uint8
	var codes [256]uint16
	var enc [256]uint32 // code<<4 | length
	for len(plane) > 0 {
		blk := plane[:min(huffBlock, len(plane))]
		plane = plane[len(blk):]

		// Four interleaved histograms: same-byte runs would otherwise
		// serialise on one counter's store-to-load forwarding.
		var h [4][256]uint32
		i := 0
		for ; i+4 <= len(blk); i += 4 {
			h[0][blk[i]]++
			h[1][blk[i+1]]++
			h[2][blk[i+2]]++
			h[3][blk[i+3]]++
		}
		for ; i < len(blk); i++ {
			h[0][blk[i]]++
		}
		for s := range h[0] {
			h[0][s] += h[1][s] + h[2][s] + h[3][s]
		}
		stream := (huffLengths(&h[0], &lens) + 7) / 8
		if len(dst)-base+huffBlockHead+stream >= limit {
			return dst[:base], false
		}
		huffCodes(&lens, &codes)
		for s := range enc {
			enc[s] = uint32(codes[s])<<4 | uint32(lens[s])
		}

		head := len(dst)
		dst = dst[:head+huffBlockHead+stream]
		binary.LittleEndian.PutUint32(dst[head:], uint32(huffTableBytes+stream))
		for s := 0; s < 256; s += 2 {
			dst[head+4+s/2] = lens[s] | lens[s+1]<<4
		}
		out := dst[head+huffBlockHead:]
		var acc uint64
		var nb uint
		pos := 0
		if len(blk)&1 != 0 { // then two symbols (<= 24 bits) per flush check
			acc, nb = uint64(enc[blk[0]]>>4), uint(enc[blk[0]]&15)
		}
		for i := len(blk) & 1; i < len(blk); i += 2 {
			e0, e1 := enc[blk[i]], enc[blk[i+1]]
			acc = (acc<<(e0&15)|uint64(e0>>4))<<(e1&15) | uint64(e1>>4)
			nb += uint(e0&15 + e1&15)
			if nb >= 32 {
				nb -= 32
				binary.BigEndian.PutUint32(out[pos:], uint32(acc>>nb))
				pos += 4
			}
		}
		for acc <<= 64 - nb; pos < len(out); pos++ { // nb < 32 bits left, top-aligned
			out[pos] = byte(acc >> 56)
			acc <<= 8
		}
	}
	return dst, true
}

// huffDecoder holds the lookup tables one block's code builds. Indexed
// by the next huffMaxBits bits of the stream. one: the symbol they start
// with, symbol<<4 | length. multi: every whole symbol they hold, up to
// three — symbols in the low three bytes in stream order, then 4 bits of
// total length and 2 bits of count. Exponent planes average under three
// bits a symbol, so one lookup yields nearly three.
type huffDecoder struct {
	lens  [256]uint8
	codes [256]uint16
	one   [1 << huffMaxBits]uint16
	multi [1 << huffMaxBits]uint32
}

// block decodes the block at the front of body into blk, which is the
// block's plane bytes (huffBlock, or fewer for a plane's last block), and
// returns the rest of body. It decodes exactly: the block's table must
// be a complete code and its bitstream must end in the byte its last
// symbol ends in.
func (d *huffDecoder) block(blk, body []byte) ([]byte, error) {
	lens, codes, one, multi := &d.lens, &d.codes, &d.one, &d.multi
	if len(body) < huffBlockHead {
		return nil, errHuff
	}
	rest := int(binary.LittleEndian.Uint32(body))
	if rest < huffTableBytes || rest > len(body)-4 {
		return nil, errHuff
	}
	for s := 0; s < 256; s += 2 {
		b := body[4+s/2]
		lens[s], lens[s+1] = b&15, b>>4
	}
	in := body[huffBlockHead : 4+rest]
	body = body[4+rest:]
	if !huffCodes(lens, codes) {
		return nil, errHuff
	}
	for s, l := range lens {
		if l != 0 {
			lo := int(codes[s]) << (huffMaxBits - l)
			e := uint16(s)<<4 | uint16(l)
			for j := lo; j < lo+1<<(huffMaxBits-l); j++ {
				one[j] = e
			}
		}
	}
	for idx := range multi {
		e := uint32(one[idx])
		syms, total, count := e>>4, e&15, uint32(1)
		for ; count < 3; count++ {
			e = uint32(one[idx<<total&(1<<huffMaxBits-1)])
			if total+e&15 > huffMaxBits {
				break
			}
			syms |= e >> 4 << (8 * count)
			total += e & 15
		}
		multi[idx] = syms | total<<24 | count<<28
	}

	// buf holds the next bits of the stream top-aligned; bits of them
	// are accounted for (any below that are a preview the next refill
	// ORs in again, unchanged).
	var buf uint64
	bits, pos, i := 0, 0, 0
	for i+16 <= len(blk) && pos+8 <= len(in) {
		buf |= binary.BigEndian.Uint64(in[pos:]) >> uint(bits)
		pos += (63 - bits) >> 3
		bits |= 56 // >= 4 lookups' worth
		for k := 0; k < 4; k++ {
			e := multi[buf>>(64-huffMaxBits)]
			binary.LittleEndian.PutUint32(blk[i:], e) // the byte past the symbols is overwritten next
			i += int(e >> 28)
			buf <<= e >> 24 & 15
			bits -= int(e >> 24 & 15)
		}
	}
	for ; i < len(blk); i++ {
		for ; bits <= 56 && pos < len(in); pos++ {
			buf |= uint64(in[pos]) << uint(56-bits)
			bits += 8
		}
		e := one[buf>>(64-huffMaxBits)]
		if bits -= int(e & 15); bits < 0 {
			return nil, errHuff
		}
		blk[i] = byte(e >> 4)
		buf <<= e & 15
	}
	if (8*pos-bits+7)/8 != len(in) {
		return nil, errHuff
	}
	return body, nil
}
