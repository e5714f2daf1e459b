package ftoa

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// TestAppendFixedMatchesStrconv holds AppendFixed to strconv, the oracle,
// on a million values per precision: random bit patterns, random decimals,
// ties — exact binary ones, which only half-to-even rounding gets right,
// and decimal ones as a float holds them — with their neighbours,
// subnormals, ±0, NaN, ±Inf and values from 1e14 on.
func TestAppendFixedMatchesStrconv(t *testing.T) {
	fixed := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, math.Nextafter(0x1p-1022, 0),
		1e14, math.Nextafter(1e14, 0), -1e14, 1e15, 1e21, math.MaxFloat64, 0.5, 1.5, 2.5, -0.5, 0.125, 0.375, 0.0625}
	const perPrec = 1_000_000
	rng := rand.New(rand.NewSource(1))
	var got, want []byte
	for prec := 0; prec <= 4; prec++ {
		check := func(v float64) {
			got, want = AppendFixed(got[:0], v, prec), strconv.AppendFloat(want[:0], v, 'f', prec, 64)
			if string(got) != string(want) {
				t.Fatalf("AppendFixed(%v [%#x], %d) = %s, strconv writes %s", v, math.Float64bits(v), prec, got, want)
			}
		}
		for _, v := range fixed {
			check(v)
		}
		scale := math.Pow10(prec)
		for i := 0; i < perPrec/8; i++ {
			check(math.Float64frombits(rng.Uint64()))
			// a random decimal of up to 14 digits before the point
			d := float64(rng.Int63n(1e6)) / math.Pow10(rng.Intn(8)) * math.Pow10(rng.Intn(9))
			check(d)
			check(-d)
			// a decimal tie (k+½)/10^prec as a float holds it, and beside it
			k := float64(rng.Int63n(1 << uint(rng.Intn(40)+1)))
			tie := (k + 0.5) / scale
			check(tie)
			check(math.Nextafter(tie, 0))
			check(math.Nextafter(tie, math.Inf(1)))
			// an exact binary tie: an odd multiple of 2^-(prec+1), and beside it
			exact := float64(2*rng.Int63n(1<<uint(rng.Intn(44)+1))+1) / float64(uint64(2)<<prec)
			check(exact)
			check(-math.Nextafter(exact, math.Inf(1)))
		}
		for i := 0; i < 1000; i++ {
			check(math.Float64frombits(rng.Uint64() & (1<<52 - 1))) // subnormal
			check(-math.Float64frombits(rng.Uint64()&(1<<52-1) | 0x0010000000000000))
			check(1e14 * (1 + 1e3*rng.Float64())) // strconv's own path
		}
	}
}

func BenchmarkAppendFixed(b *testing.B) {
	values := []float64{0.0123, 1.5, 3.14159, 0.42, 12.25, 0.000871}
	buf := make([]byte, 0, 32)
	b.Run("appendFixed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf = AppendFixed(buf[:0], values[i%len(values)], 4)
		}
	})
	b.Run("strconv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf = strconv.AppendFloat(buf[:0], values[i%len(values)], 'f', 4, 64)
		}
	})
}
