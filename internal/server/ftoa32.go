package server

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"slices"
	"strconv"
)

// Shortest float32 rendering for the JSON response path.
//
// appendFloat32 is a float32-specialised Schubfach formatter (R. Giulietti,
// "The Schubfach way to render doubles", 2020) laid out with strconv's
// shortest 'g' rules. Its output is byte-identical to
// strconv.AppendFloat(dst, float64(v), 'g', -1, 32) for every float32
// (checked exhaustively by the `exhaustive`-tagged test, by fuzzing, and by
// the default-tier boundary sweep in ftoa32_test.go), at well under half
// of strconv's cost: one 64×64→128 multiply per interval bound, one table
// lookup, the digits split eight at a time in one register, and the
// rendering stored as whole words into the destination's spare capacity.
//
// For a finite positive float32 v = c·2^q, the rounding interval
// R_v = [v_l, v_r] holds every real that parses back to v (closed when c
// is even, round-half-even). Schubfach scales v, v_l and v_r by 10^-k,
// with k chosen so that R_v spans less than one unit of 10^(k+1) but at
// least one unit of 10^k. Then either exactly one multiple of 10 in the
// scaled interval gives the shortest decimal, or the shortest has the
// full length at 10^k and the candidate closest to v wins (ties to even).
// The scaled values are computed with round-to-odd, which the paper shows
// is exact for the comparisons the algorithm makes.

const (
	// f32KMin and f32KMax bound k = floor(log10(2^q)) over the float32
	// exponent range q ∈ [-149, 104]; the table covers every k either
	// spacing case can produce.
	f32KMin = -45
	f32KMax = 31
)

// f32Pow10 holds, for k ∈ [f32KMin, f32KMax], g(k) = floor(10^-k ·
// 2^(62 - flog2pow10(-k))) + 1: a 63-bit over-approximation of 10^-k
// normalised to [2^62, 2^63].
var f32Pow10 = func() (t [f32KMax - f32KMin + 1]uint64) {
	for k := f32KMin; k <= f32KMax; k++ {
		num, den := big.NewInt(1), big.NewInt(1)
		ten := big.NewInt(10)
		if k < 0 {
			num.Exp(ten, big.NewInt(int64(-k)), nil)
		} else {
			den.Exp(ten, big.NewInt(int64(k)), nil)
		}
		if sh := 62 - flog2pow10(-k); sh >= 0 {
			num.Lsh(num, uint(sh))
		} else {
			den.Lsh(den, uint(-sh))
		}
		t[k-f32KMin] = num.Quo(num, den).Uint64() + 1
	}
	return t
}()

// The fixed-point logarithms below are exact over the exponents the
// formatter uses (TestFloat32LogApprox checks them against big-integer
// arithmetic).

// flog10pow2 returns floor(log10(2^e)).
func flog10pow2(e int) int {
	return int(int64(e) * 661_971_961_083 >> 41)
}

// flog10ThreeQuartersPow2 returns floor(log10(3/4 · 2^e)).
func flog10ThreeQuartersPow2(e int) int {
	return int((int64(e)*661_971_961_083 - 274_743_187_321) >> 41)
}

// flog2pow10 returns floor(log2(10^e)).
func flog2pow10(e int) int {
	return int(int64(e) * 913_124_641_741 >> 38)
}

// ropMul returns the round-to-odd value of g·cp / 2^95: the floor, with
// the lowest bit forced to 1 when the (approximated) fraction is non-zero.
func ropMul(g, cp uint64) uint32 {
	hi, _ := bits.Mul64(g, cp)
	return uint32(hi>>31 | (hi&0xffffffff+0xffffffff)>>32)
}

// maxFloat32Len bounds the length of one rendered float32
// ("-1.23456789e-38" and "-0.000123456789" are the longest shapes).
const maxFloat32Len = 16

// f32Scratch is the spare capacity appendFloat32 writes into: the
// rendering is assembled with unconditional 8-byte stores past its end.
const f32Scratch = 32

// ascii0s is eight '0' characters as a little-endian word.
const ascii0s uint64 = 0x3030303030303030

// appendFloat32 appends the shortest decimal that round-trips to v, laid
// out exactly as strconv.AppendFloat(dst, float64(v), 'g', -1, 32).
func appendFloat32(dst []byte, v float32) []byte {
	b := math.Float32bits(v)
	bq := int(b>>23) & 0xff
	bc := b & (1<<23 - 1)
	if bq == 0 || bq == 0xff {
		switch {
		case b == 0:
			return append(dst, '0')
		case b == 1<<31:
			return append(dst, '-', '0')
		}
		// Subnormals, ±Inf and NaN: rare enough to leave to strconv.
		return strconv.AppendFloat(dst, float64(v), 'g', -1, 32)
	}
	f, e := f32Decimal(bc, bq) // v = ±f·10^e

	// f < 10^9 as nine digits with leading zeros: eight from f/10, then
	// f%10. The significant digits D (n of them, f's digits less its
	// trailing zeros) are the 16-byte ASCII window d0|d1, padded with '0'.
	hi := f / 10
	last := f - 10*hi
	raw := digits8(hi)
	lz := bits.TrailingZeros64(raw) / 8 * 8 // leading zero digits, in bits
	a := raw | ascii0s
	c := uint64('0'+last) | ascii0s&^0xff
	d0 := a>>lz | c<<(64-lz)
	d1 := c>>lz | ascii0s<<(64-lz)
	n := 9 - lz/8
	dp := n + e // decimal point position after the first digit
	if last == 0 {
		n -= 1 + bits.LeadingZeros64(raw)/8
	}

	dst = slices.Grow(dst, f32Scratch)
	out := dst[len(dst) : len(dst)+f32Scratch]
	out[0] = '-'
	p := int(b >> 31)
	switch x := dp - 1; {
	case x < -4 || x >= 6:
		// d[.ddd]e±XX; float32 decimal exponents never need three digits.
		out[p] = byte(d0)
		out[p+1] = '.'
		le.PutUint64(out[p+2:], d0>>8|d1<<56)
		p++
		if n > 1 {
			p += n
		}
		out[p] = 'e'
		out[p+1] = '+'
		if x < 0 {
			out[p+1] = '-'
			x = -x
		}
		out[p+2] = smallDigits[2*x]
		out[p+3] = smallDigits[2*x+1]
		p += 4
	case dp <= 0:
		// 0.000ddd
		le.PutUint64(out[p:], ascii0s&^0xff00|'.'<<8)
		p += 2 - dp
		le.PutUint64(out[p:], d0)
		le.PutUint64(out[p+8:], d1)
		p += n
	case dp < n:
		// ddd.ddd
		le.PutUint64(out[p:], d0)
		out[p+dp] = '.'
		sh := uint(8 * dp)
		le.PutUint64(out[p+dp+1:], d0>>sh|d1<<(64-sh))
		p += n + 1
	default:
		// ddd000: the '0' padding after the digits supplies the zeros.
		le.PutUint64(out[p:], d0)
		p += dp
	}
	return dst[:len(dst)+p]
}

var le = binary.LittleEndian

// digits8 returns x < 10^8 as eight decimal digit values (0–9, not ASCII)
// in a little-endian word, most significant digit in the lowest byte. The
// digits are split in SIMD-within-a-register lanes: 4+4, then 2+2 per
// half, then 1+1 per pair, each split a multiply-shift division that is
// exact for the lane's range.
func digits8(x uint32) uint64 {
	w := uint64(x/10000) | uint64(x%10000)<<32
	hundreds := (w * 10486 >> 20) & (0x7f<<32 | 0x7f) // lane / 100 for lanes < 10^4
	w = (w-100*hundreds)<<16 | hundreds
	tens := (w * 103 >> 10) & (0xf<<48 | 0xf<<32 | 0xf<<16 | 0xf) // lane / 10 for lanes < 100
	return (w-10*tens)<<8 | tens
}

// f32Decimal returns the shortest-closest decimal f·10^e for the normal
// float32 with mantissa field bc and biased exponent bq. f may carry
// trailing zeros.
func f32Decimal(bc uint32, bq int) (f uint32, e int) {
	c := bc | 1<<23
	q := bq - 150 // v = c·2^q
	// Integers below 2^24 render exactly, as strconv does: their
	// neighbours are at most one apart, so nothing shorter is in R_v.
	if q <= 0 && q > -24 && c&(1<<-q-1) == 0 {
		return c >> -q, 0
	}
	out := c & 1
	cb := uint64(c) << 2
	cbr := cb + 2
	var cbl uint64
	var k int
	if bc != 0 || bq == 1 {
		// Regular spacing: v_l and v_r are half an ulp away.
		cbl = cb - 2
		k = flog10pow2(q)
	} else {
		// A power of two: the lower neighbour is half as far away.
		cbl = cb - 1
		k = flog10ThreeQuartersPow2(q)
	}
	h := q + flog2pow10(-k) + 33
	g := f32Pow10[k-f32KMin]
	vb := ropMul(g, cb<<h)
	vbl := ropMul(g, cbl<<h)
	vbr := ropMul(g, cbr<<h)

	// s = floor(v·10^-k) ≥ c ≥ 2^23 for normals. At most one multiple of
	// 10 fits in the scaled interval; when exactly one of the two
	// bracketing s is in R_v it is the shortest decimal. Otherwise the
	// shortest has full length at 10^k: s or t = s+1, whichever is in R_v,
	// else the one closer to v (ties to even). Which case applies is
	// data-dependent, so the choice is made without branches.
	s := vb >> 2
	sp10 := 10 * uint32(uint64(s)*1_717_986_919>>34)
	tp10 := sp10 + 10
	upin := vbl+out <= sp10<<2
	wpin := tp10<<2+out <= vbr
	t := s + 1
	uin := vbl+out <= s<<2
	win := t<<2+out <= vbr
	cmp := int32(vb) - int32((s+t)<<1)
	pickS := b2u(uin) & (b2u(!win) | b2u(cmp < 0) | b2u(cmp == 0)&^s)
	f = t - pickS
	if upin != wpin {
		f = tp10 - 10*b2u(upin)
	}
	return f, k
}

// b2u returns 1 for true and 0 for false.
func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// smallDigits holds "00".."99" for the two-digit decimal exponent.
const smallDigits = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"
