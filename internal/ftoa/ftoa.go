// Package ftoa formats floats with a fixed number of decimals, as
// strconv.AppendFloat(dst, v, 'f', prec, 64) does, without its
// multi-precision decimal: for a fixed precision in 'f' format strconv
// always takes its big-decimal path, which costs ten times the exact
// integer rounding done here. The pages' seconds, milliseconds and ratios
// and the load averages stamped on every measurement are formatted with it.
package ftoa

import (
	"math"
	"math/bits"
	"strconv"
)

// pow10 are the scales of the precisions AppendFixed rounds itself.
var pow10 = [...]uint64{1, 10, 100, 1000, 10000}

// AppendFixed appends what strconv.AppendFloat(dst, v, 'f', prec, 64)
// appends. For prec 0 to 4 and a finite |v| below 1e14 it rounds the exact
// binary value of v times 10^prec to an integer, half to even, as strconv
// does; anything else is left to strconv.
func AppendFixed(dst []byte, v float64, prec int) []byte {
	if prec < 0 || prec >= len(pow10) || math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) >= 1e14 {
		return strconv.AppendFloat(dst, v, 'f', prec, 64)
	}
	b := math.Float64bits(v)
	if b>>63 != 0 {
		dst = append(dst, '-') // -0 and a negative value that rounds to 0 too
	}
	mant, exp := b&(1<<52-1), int(b>>52&0x7ff)
	if exp == 0 {
		exp = 1 // subnormal
	} else {
		mant |= 1 << 52
	}
	exp -= 1075 // |v| = mant × 2^exp
	var n uint64
	if exp >= 0 {
		n = mant << exp * pow10[prec] // an integer below 1e14: exact
	} else {
		// |v| × 10^prec = (hi:lo) / 2^s: the quotient, rounded half to even
		// by the bit below the cut and whether any bit under it is set. A
		// shift past 63 bits leaves 0, so s of 128 and more needs no case.
		hi, lo := bits.Mul64(mant, pow10[prec])
		s := uint(-exp)
		if s < 64 {
			n = lo>>s | hi<<(64-s)
		} else {
			n = hi >> (s - 64)
		}
		half, rest := bit128(hi, lo, s-1), below128(hi, lo, s-1)
		if half && (rest || n&1 == 1) {
			n++
		}
	}
	var buf [24]byte
	i := len(buf)
	for k := 0; k < prec; k++ {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if prec > 0 {
		i--
		buf[i] = '.'
	}
	for {
		i--
		buf[i] = byte('0' + n%10)
		if n /= 10; n == 0 {
			break
		}
	}
	return append(dst, buf[i:]...)
}

// bit128 reports whether bit i of hi:lo is set.
func bit128(hi, lo uint64, i uint) bool {
	if i >= 64 {
		return hi>>(i-64)&1 == 1
	}
	return lo>>i&1 == 1
}

// below128 reports whether any bit of hi:lo below bit i is set.
func below128(hi, lo uint64, i uint) bool {
	if i >= 64 {
		return lo != 0 || hi&(1<<(i-64)-1) != 0
	}
	return lo&(1<<i-1) != 0
}
