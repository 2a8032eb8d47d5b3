package bn254

// The base-field kernel as it stood before the branch-free rewrite: a
// schoolbook 512-bit product followed by a separate word-by-word Montgomery
// reduction, and add/sub/neg that branch on the borrow. It is kept, renamed
// but otherwise verbatim, as the differential oracle and speed baseline for
// the fused kernel in fe.go (fe_kernel_test.go).

import "math/bits"

// feP is the modulus as an array, for the oracle's indexed loops.
var feP = fe{feP0, feP1, feP2, feP3}

// oracleFeAdd sets z = x + y mod P.
func oracleFeAdd(z, x, y *fe) {
	t0, c := bits.Add64(x[0], y[0], 0)
	t1, c := bits.Add64(x[1], y[1], c)
	t2, c := bits.Add64(x[2], y[2], c)
	t3, _ := bits.Add64(x[3], y[3], c)
	// x, y < P < 2²⁵⁴ so the sum fits without a carry out; one trial
	// subtraction both detects and performs the reduction.
	s0, b := bits.Sub64(t0, feP[0], 0)
	s1, b := bits.Sub64(t1, feP[1], b)
	s2, b := bits.Sub64(t2, feP[2], b)
	s3, b := bits.Sub64(t3, feP[3], b)
	if b == 0 {
		z[0], z[1], z[2], z[3] = s0, s1, s2, s3
	} else {
		z[0], z[1], z[2], z[3] = t0, t1, t2, t3
	}
}

// oracleFeDouble sets z = 2x mod P.
func oracleFeDouble(z, x *fe) { oracleFeAdd(z, x, x) }

// oracleFeReduce conditionally subtracts P once, for values in [0, 2P).
func oracleFeReduce(z *fe) {
	s0, b := bits.Sub64(z[0], feP[0], 0)
	s1, b := bits.Sub64(z[1], feP[1], b)
	s2, b := bits.Sub64(z[2], feP[2], b)
	s3, b := bits.Sub64(z[3], feP[3], b)
	if b == 0 {
		z[0], z[1], z[2], z[3] = s0, s1, s2, s3
	}
}

// oracleFeSub sets z = x − y mod P.
func oracleFeSub(z, x, y *fe) {
	var b uint64
	z[0], b = bits.Sub64(x[0], y[0], 0)
	z[1], b = bits.Sub64(x[1], y[1], b)
	z[2], b = bits.Sub64(x[2], y[2], b)
	z[3], b = bits.Sub64(x[3], y[3], b)
	if b != 0 {
		var c uint64
		z[0], c = bits.Add64(z[0], feP[0], 0)
		z[1], c = bits.Add64(z[1], feP[1], c)
		z[2], c = bits.Add64(z[2], feP[2], c)
		z[3], _ = bits.Add64(z[3], feP[3], c)
	}
}

// oracleFeNeg sets z = −x mod P.
func oracleFeNeg(z, x *fe) {
	if x.IsZero() {
		*z = fe{}
		return
	}
	var b uint64
	z[0], b = bits.Sub64(feP[0], x[0], 0)
	z[1], b = bits.Sub64(feP[1], x[1], b)
	z[2], b = bits.Sub64(feP[2], x[2], b)
	z[3], _ = bits.Sub64(feP[3], x[3], b)
}

// oracleFeMul sets z = x·y·R⁻¹ mod P: the Montgomery product. It computes the
// full 512-bit product (operand scanning, fully unrolled) and then applies
// word-by-word Montgomery reduction; inputs and output are fully reduced.
// Per row the invariant is textbook: x_i·y_j + t_{i+j} + carry < 2¹²⁸, so
// the high word never overflows when the two add-carries fold in.
func oracleFeMul(z, x, y *fe) {
	var t [8]uint64
	var carry, c, hi, lo uint64

	// Row 0: t = x0·y.
	hi, t[0] = bits.Mul64(x[0], y[0])
	carry = hi
	hi, lo = bits.Mul64(x[0], y[1])
	t[1], c = bits.Add64(lo, carry, 0)
	carry = hi + c
	hi, lo = bits.Mul64(x[0], y[2])
	t[2], c = bits.Add64(lo, carry, 0)
	carry = hi + c
	hi, lo = bits.Mul64(x[0], y[3])
	t[3], c = bits.Add64(lo, carry, 0)
	t[4] = hi + c

	// Rows 1-3: t += x_i·y << 64i.
	for i := 1; i < 4; i++ {
		xi := x[i]
		hi, lo = bits.Mul64(xi, y[0])
		lo, c = bits.Add64(lo, t[i], 0)
		hi += c
		t[i] = lo
		carry = hi
		hi, lo = bits.Mul64(xi, y[1])
		lo, c = bits.Add64(lo, t[i+1], 0)
		hi += c
		lo, c = bits.Add64(lo, carry, 0)
		hi += c
		t[i+1] = lo
		carry = hi
		hi, lo = bits.Mul64(xi, y[2])
		lo, c = bits.Add64(lo, t[i+2], 0)
		hi += c
		lo, c = bits.Add64(lo, carry, 0)
		hi += c
		t[i+2] = lo
		carry = hi
		hi, lo = bits.Mul64(xi, y[3])
		lo, c = bits.Add64(lo, t[i+3], 0)
		hi += c
		lo, c = bits.Add64(lo, carry, 0)
		hi += c
		t[i+3] = lo
		t[i+4] = hi
	}
	oracleFeMontReduce(z, &t)
}

// oracleFeSquare sets z = x²·R⁻¹ mod P.
func oracleFeSquare(z, x *fe) { oracleFeMul(z, x, x) }

// oracleFeMontReduce folds a 512-bit value t into z = t·R⁻¹ mod P. For inputs
// t < P·2²⁵⁶ (every product of reduced elements qualifies) the result
// fits in four limbs before the final conditional subtraction. Each round
// zeroes limb i by adding m·P with m = t_i·(−P⁻¹) mod 2⁶⁴; the round's
// carry lands on limb i+4 and the single carry bit e chains upward.
func oracleFeMontReduce(z *fe, t *[8]uint64) {
	var e, carry, c, hi, lo uint64
	for i := 0; i < 4; i++ {
		m := t[i] * feNP
		hi, lo = bits.Mul64(m, feP[0])
		_, c = bits.Add64(lo, t[i], 0) // low limb cancels by construction
		carry = hi + c
		hi, lo = bits.Mul64(m, feP[1])
		lo, c = bits.Add64(lo, t[i+1], 0)
		hi += c
		lo, c = bits.Add64(lo, carry, 0)
		hi += c
		t[i+1] = lo
		carry = hi
		hi, lo = bits.Mul64(m, feP[2])
		lo, c = bits.Add64(lo, t[i+2], 0)
		hi += c
		lo, c = bits.Add64(lo, carry, 0)
		hi += c
		t[i+2] = lo
		carry = hi
		hi, lo = bits.Mul64(m, feP[3])
		lo, c = bits.Add64(lo, t[i+3], 0)
		hi += c
		lo, c = bits.Add64(lo, carry, 0)
		hi += c
		t[i+3] = lo
		t[i+4], e = bits.Add64(t[i+4], hi, e)
	}
	z[0], z[1], z[2], z[3] = t[4], t[5], t[6], t[7]
	oracleFeReduce(z)
}

// oracleFeFromMont leaves the Montgomery domain: z = x·R⁻¹ mod P.
func oracleFeFromMont(z, x *fe) {
	t := [8]uint64{x[0], x[1], x[2], x[3]}
	oracleFeMontReduce(z, &t)
}

// oracleFeMulBy9 sets z = 9x = 8x + x.
func oracleFeMulBy9(z, x *fe) {
	var t fe
	oracleFeDouble(&t, x)
	oracleFeDouble(&t, &t)
	oracleFeDouble(&t, &t)
	oracleFeAdd(z, &t, x)
}
