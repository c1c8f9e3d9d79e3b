package server

import (
	"math"
	"math/big"
	"strconv"
	"testing"
)

// checkFloat32Bits fails t when appendFloat32 and strconv disagree on the
// float32 with the given bit pattern.
func checkFloat32Bits(t testing.TB, b uint32) {
	t.Helper()
	v := math.Float32frombits(b)
	got := appendFloat32(nil, v)
	want := strconv.AppendFloat(nil, float64(v), 'g', -1, 32)
	if string(got) != string(want) {
		t.Fatalf("appendFloat32(%#08x) = %q, strconv = %q", b, got, want)
	}
}

// TestAppendFloat32 pins the formatter to strconv on the inputs where
// shortest formatters go wrong: zeros, the subnormal/normal seam, the ends
// of every binade (where the interval turns asymmetric), powers of ten and
// their neighbours (where digit counts and the 'e'/'f' layout switch), and
// a strided sweep of the k/2^23 grid the embedding synthesizer draws from.
// The full 2^32 sweep is the `exhaustive`-tagged test.
func TestAppendFloat32(t *testing.T) {
	check := func(b uint32) {
		checkFloat32Bits(t, b)
		checkFloat32Bits(t, b|1<<31)
	}
	check(0)
	check(1)                                      // smallest subnormal
	check(1<<23 - 1)                              // largest subnormal
	check(math.Float32bits(math.MaxFloat32))      // largest finite
	check(math.Float32bits(float32(math.Inf(1)))) // delegated, still identical
	for exp := uint32(1); exp < 0xff; exp++ {
		for _, m := range []uint32{0, 1, 2, 3, 1<<23 - 2, 1<<23 - 1} {
			check(exp<<23 | m)
		}
	}
	for e := -45; e <= 38; e++ {
		p, _ := strconv.ParseFloat("1e"+strconv.Itoa(e), 32)
		b := math.Float32bits(float32(p))
		for d := uint32(0); d <= 2; d++ {
			check(b - d)
			check(b + d)
		}
	}
	// Synthesizer values are k/2^23 for k ∈ [-2^23, 2^23).
	for k := int32(-1 << 23); k < 1<<23; k += 251 {
		checkFloat32Bits(t, math.Float32bits(float32(k)/(1<<23)))
	}
}

// TestFloat32LogApprox checks the fixed-point logarithms against exact
// big-integer comparisons over every exponent the formatter uses.
func TestFloat32LogApprox(t *testing.T) {
	pow := func(base, e int64) *big.Int { return new(big.Int).Exp(big.NewInt(base), big.NewInt(e), nil) }
	// floorLog10 returns floor(log10(num/den)) for positive num and den.
	floorLog10 := func(num, den *big.Int) int {
		atLeast := func(k int) bool { // num/den ≥ 10^k
			if k >= 0 {
				return num.Cmp(new(big.Int).Mul(den, pow(10, int64(k)))) >= 0
			}
			return new(big.Int).Mul(num, pow(10, int64(-k))).Cmp(den) >= 0
		}
		k := 0
		for !atLeast(k) {
			k--
		}
		for atLeast(k + 1) {
			k++
		}
		return k
	}
	for q := -160; q <= 110; q++ {
		num, den := big.NewInt(1), big.NewInt(1)
		if q >= 0 {
			num = pow(2, int64(q))
		} else {
			den = pow(2, int64(-q))
		}
		if got, want := flog10pow2(q), floorLog10(num, den); got != want {
			t.Fatalf("flog10pow2(%d) = %d, want %d", q, got, want)
		}
		num3 := new(big.Int).Mul(num, big.NewInt(3))
		den4 := new(big.Int).Mul(den, big.NewInt(4))
		if got, want := flog10ThreeQuartersPow2(q), floorLog10(num3, den4); got != want {
			t.Fatalf("flog10ThreeQuartersPow2(%d) = %d, want %d", q, got, want)
		}
	}
	for e := -f32KMax; e <= -f32KMin; e++ {
		// floor(log2(10^e)); 10^|e| is never a power of two for e ≠ 0, so
		// for e < 0 the floor is minus the bit length.
		p := pow(10, int64(max(e, -e)))
		want := p.BitLen() - 1
		if e < 0 {
			want = -p.BitLen()
		}
		if got := flog2pow10(e); got != want {
			t.Fatalf("flog2pow10(%d) = %d, want %d", e, got, want)
		}
	}
}

// FuzzAppendFloat32 compares the formatter with strconv on arbitrary bit
// patterns.
func FuzzAppendFloat32(f *testing.F) {
	for _, v := range []float32{0, 1, -1, 0.1, 1e-5, 2e6, 123456, 1234567, math.MaxFloat32, math.SmallestNonzeroFloat32} {
		f.Add(math.Float32bits(v))
	}
	f.Fuzz(func(t *testing.T, b uint32) {
		checkFloat32Bits(t, b)
	})
}
