package bn254

import (
	"math/big"
	"math/bits"
)

// fe is a base-field element in Montgomery form: the value represented is
// fe·R⁻¹ mod P with R = 2²⁵⁶, stored as four 64-bit limbs, least
// significant first. Elements are always kept fully reduced (< P), so limb
// equality is value equality.
//
// This is the limb backend that replaced the original big.Int field
// arithmetic (retained as the fp* reference implementation for
// differential tests). All operations are allocation-free; values live on
// the stack. The boundary-conversion rule: values enter the Montgomery
// domain in feFromBig/feSetBytes and leave it in feToBig/feBytes —
// everything in between (towers, curve arithmetic, the Miller loop)
// stays in-domain, so there are no Mod calls and no heap traffic on the
// pairing hot path.
type fe [4]uint64

// The modulus P as little-endian limbs, and −P⁻¹ mod 2⁶⁴. They are
// constants so the kernel's products take immediates instead of loads;
// TestFeConstantsMatchDerivation pins them, with feR2 and feOne, against
// a derivation from the big.Int modulus.
const (
	feP0 = 0x3c208c16d87cfd47
	feP1 = 0x97816a916871ca8d
	feP2 = 0xb85045b68181585d
	feP3 = 0x30644e72e131a029
	feNP = 0x87d20782e4866389
)

var (
	// feR2 is R² mod P, which carries a raw value into Montgomery form.
	feR2 = fe{0xf32cfc5b538afa89, 0xb5e71911d44501fb, 0x47ab1eff0a417ff6, 0x06d89f71cab8351f}
	// feOne is R mod P, the Montgomery image of 1.
	feOne = fe{0xd35d438dc58f0d9d, 0x0a78eb28f5c70b3d, 0x666ea36f7879462c, 0x0e0a77c19a07df2f}
)

// The kernel below has no branch that depends on an operand: every
// reduction computes both candidates and selects one with a mask made from
// the borrow. Secret scalars and IBE keys pass through it, and a branch on
// the borrow also mispredicts about half the time.

// feCondSubP returns t − P if t ≥ P and t otherwise, for t < 2P given as
// four limbs. It is small enough for the compiler to inline.
func feCondSubP(t0, t1, t2, t3 uint64) (r0, r1, r2, r3 uint64) {
	s0, b := bits.Sub64(t0, feP0, 0)
	s1, b := bits.Sub64(t1, feP1, b)
	s2, b := bits.Sub64(t2, feP2, b)
	s3, b := bits.Sub64(t3, feP3, b)
	keep := -b // all ones when t < P
	return s0 ^ keep&(s0^t0), s1 ^ keep&(s1^t1), s2 ^ keep&(s2^t2), s3 ^ keep&(s3^t3)
}

// feAdd sets z = x + y mod P. x, y < P < 2²⁵⁴, so the sum has no carry out.
func feAdd(z, x, y *fe) {
	t0, c := bits.Add64(x[0], y[0], 0)
	t1, c := bits.Add64(x[1], y[1], c)
	t2, c := bits.Add64(x[2], y[2], c)
	t3, _ := bits.Add64(x[3], y[3], c)
	z[0], z[1], z[2], z[3] = feCondSubP(t0, t1, t2, t3)
}

// feAddLazy sets z = x + y without the reduction. For x, y < P the sum is
// below 2P, which feMul accepts as an operand.
func feAddLazy(z, x, y *fe) {
	var c uint64
	z[0], c = bits.Add64(x[0], y[0], 0)
	z[1], c = bits.Add64(x[1], y[1], c)
	z[2], c = bits.Add64(x[2], y[2], c)
	z[3], _ = bits.Add64(x[3], y[3], c)
}

// feDouble sets z = 2x mod P.
func feDouble(z, x *fe) {
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	z[0], z[1], z[2], z[3] = feCondSubP(x0<<1, x1<<1|x0>>63, x2<<1|x1>>63, x3<<1|x2>>63)
}

// feReduce conditionally subtracts P once, for values in [0, 2P).
func feReduce(z *fe) { z[0], z[1], z[2], z[3] = feCondSubP(z[0], z[1], z[2], z[3]) }

// feLessThanP reports whether z < P.
func feLessThanP(z *fe) bool {
	_, b := bits.Sub64(z[0], feP0, 0)
	_, b = bits.Sub64(z[1], feP1, b)
	_, b = bits.Sub64(z[2], feP2, b)
	_, b = bits.Sub64(z[3], feP3, b)
	return b == 1
}

// feSub sets z = x − y mod P, adding P back under a mask of the borrow.
func feSub(z, x, y *fe) {
	d0, b := bits.Sub64(x[0], y[0], 0)
	d1, b := bits.Sub64(x[1], y[1], b)
	d2, b := bits.Sub64(x[2], y[2], b)
	d3, b := bits.Sub64(x[3], y[3], b)
	mask := -b
	var c uint64
	z[0], c = bits.Add64(d0, feP0&mask, 0)
	z[1], c = bits.Add64(d1, feP1&mask, c)
	z[2], c = bits.Add64(d2, feP2&mask, c)
	z[3], _ = bits.Add64(d3, feP3&mask, c)
}

// feNeg sets z = −x mod P; 0 − 0 borrows nothing, so zero maps to zero.
func feNeg(z, x *fe) { feSub(z, &fe{}, x) }

// feMul sets z = x·y·R⁻¹ mod P, the Montgomery product, by coarsely
// integrated operand scanning (CIOS). Each row adds x·y_i into the running
// value t, then takes one Montgomery step: it adds m·P with
// m = t0·(−P⁻¹) mod 2⁶⁴, which zeroes the low limb, and shifts down a
// limb. P's top limb is below 2⁶², so the running value fits in four limbs
// plus the row's carry word a, with no sixth overflow word (the "no-carry"
// variant). The additions are unbroken Add64 chains, so the compiler keeps
// each carry in the flags instead of materialising it; unrolling the rows
// measured no faster.
//
// Inputs need only be below 2P, not fully reduced: since 4P < R,
// (x·y + M·P)/R < 4P²/R + P < 2P, so the final conditional subtraction
// still yields a fully reduced z. z may alias x or y.
func feMul(z, x, y *fe) {
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	var t0, t1, t2, t3, a, c, m uint64
	var u0, u1, u2, u3, l0, l1, l2, l3 uint64
	for i := 0; i < 4; i++ {
		yi := y[i]
		u0, l0 = bits.Mul64(x0, yi)
		u1, l1 = bits.Mul64(x1, yi)
		u2, l2 = bits.Mul64(x2, yi)
		u3, l3 = bits.Mul64(x3, yi)
		t0, c = bits.Add64(t0, l0, 0)
		t1, c = bits.Add64(t1, l1, c)
		t2, c = bits.Add64(t2, l2, c)
		t3, c = bits.Add64(t3, l3, c)
		a, _ = bits.Add64(u3, 0, c)
		t1, c = bits.Add64(t1, u0, 0)
		t2, c = bits.Add64(t2, u1, c)
		t3, c = bits.Add64(t3, u2, c)
		a, _ = bits.Add64(a, 0, c)

		m = t0 * feNP
		u0, l0 = bits.Mul64(m, feP0)
		u1, l1 = bits.Mul64(m, feP1)
		u2, l2 = bits.Mul64(m, feP2)
		u3, l3 = bits.Mul64(m, feP3)
		_, c = bits.Add64(t0, l0, 0)
		t0, c = bits.Add64(t1, l1, c)
		t1, c = bits.Add64(t2, l2, c)
		t2, c = bits.Add64(t3, l3, c)
		t3, _ = bits.Add64(a, 0, c)
		t0, c = bits.Add64(t0, u0, 0)
		t1, c = bits.Add64(t1, u1, c)
		t2, c = bits.Add64(t2, u2, c)
		t3, _ = bits.Add64(t3, u3, c)
	}
	z[0], z[1], z[2], z[3] = feCondSubP(t0, t1, t2, t3)
}

// feSquare sets z = x²·R⁻¹ mod P. It forms the 512-bit square r from the
// six cross products, doubled, and the four diagonal ones: ten multiplies
// instead of sixteen. Four Montgomery steps then take r's low half L to
// (L + M·P)/R ≤ P, and adding the high half ⌊x²/R⌋ < P/4 gives
// (r + M·P)/R < 2P, so one conditional subtraction finishes.
func feSquare(z, x *fe) {
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	var r0, r1, r2, r3, r4, r5, r6, r7, c, m uint64
	var u0, u1, u2, u3, l0, l1, l2, l3 uint64

	u0, r1 = bits.Mul64(x0, x1)
	u1, l1 = bits.Mul64(x0, x2)
	u2, l2 = bits.Mul64(x0, x3)
	r2, c = bits.Add64(l1, u0, 0)
	r3, c = bits.Add64(l2, u1, c)
	r4, _ = bits.Add64(u2, 0, c)
	u0, l0 = bits.Mul64(x1, x2)
	u1, l1 = bits.Mul64(x1, x3)
	r3, c = bits.Add64(r3, l0, 0)
	r4, c = bits.Add64(r4, l1, c)
	r5, _ = bits.Add64(u1, 0, c)
	r4, c = bits.Add64(r4, u0, 0)
	u2, l2 = bits.Mul64(x2, x3)
	r5, c = bits.Add64(r5, l2, c)
	r6, _ = bits.Add64(u2, 0, c)

	r7 = r6 >> 63
	r6 = r6<<1 | r5>>63
	r5 = r5<<1 | r4>>63
	r4 = r4<<1 | r3>>63
	r3 = r3<<1 | r2>>63
	r2 = r2<<1 | r1>>63
	r1 <<= 1

	u0, r0 = bits.Mul64(x0, x0)
	u1, l1 = bits.Mul64(x1, x1)
	u2, l2 = bits.Mul64(x2, x2)
	u3, l3 = bits.Mul64(x3, x3)
	r1, c = bits.Add64(r1, u0, 0)
	r2, c = bits.Add64(r2, l1, c)
	r3, c = bits.Add64(r3, u1, c)
	r4, c = bits.Add64(r4, l2, c)
	r5, c = bits.Add64(r5, u2, c)
	r6, c = bits.Add64(r6, l3, c)
	r7, _ = bits.Add64(r7, u3, c)

	for i := 0; i < 4; i++ {
		m = r0 * feNP
		u0, l0 = bits.Mul64(m, feP0)
		u1, l1 = bits.Mul64(m, feP1)
		u2, l2 = bits.Mul64(m, feP2)
		u3, l3 = bits.Mul64(m, feP3)
		_, c = bits.Add64(r0, l0, 0)
		r0, c = bits.Add64(r1, l1, c)
		r1, c = bits.Add64(r2, l2, c)
		r2, c = bits.Add64(r3, l3, c)
		r3 = c
		r0, c = bits.Add64(r0, u0, 0)
		r1, c = bits.Add64(r1, u1, c)
		r2, c = bits.Add64(r2, u2, c)
		r3, _ = bits.Add64(r3, u3, c)
	}
	r0, c = bits.Add64(r0, r4, 0)
	r1, c = bits.Add64(r1, r5, c)
	r2, c = bits.Add64(r2, r6, c)
	r3, _ = bits.Add64(r3, r7, c)
	z[0], z[1], z[2], z[3] = feCondSubP(r0, r1, r2, r3)
}

// feFromMont leaves the Montgomery domain: z = x·R⁻¹ mod P, a Montgomery
// product with the raw integer 1.
func feFromMont(z, x *fe) { feMul(z, x, &fe{1}) }

// IsZero reports whether the element is zero (in either domain).
func (x *fe) IsZero() bool { return x[0]|x[1]|x[2]|x[3] == 0 }

// Equal reports limb equality, which is value equality because elements
// are kept fully reduced.
func (x *fe) Equal(y *fe) bool {
	return x[0] == y[0] && x[1] == y[1] && x[2] == y[2] && x[3] == y[3]
}

// feExp sets z = x^e mod P (e ≥ 0, not secret) by square-and-multiply.
func feExp(z, x *fe, e *big.Int) {
	acc := feOne
	base := *x
	for i := e.BitLen() - 1; i >= 0; i-- {
		feSquare(&acc, &acc)
		if e.Bit(i) == 1 {
			feMul(&acc, &acc, &base)
		}
	}
	*z = acc
}

// feInv sets z = x⁻¹ mod P via Fermat (x^(P−2)). It panics on zero, which
// would indicate a bug in a caller (all callers guard against zero
// denominators), matching the fpInv reference.
func feInv(z, x *fe) {
	if x.IsZero() {
		panic("bn254: inversion of zero")
	}
	feExp(z, x, pMinus2)
}

// feSqrt sets z to the principal square root x^((P+1)/4) and reports
// whether x is a quadratic residue. The root agrees exactly with the
// fpSqrt reference, which callers rely on for deterministic hash-to-curve.
func feSqrt(z, x *fe) bool {
	var r, r2 fe
	feExp(&r, x, pSqrtExp)
	feSquare(&r2, &r)
	if !r2.Equal(x) {
		return false
	}
	*z = r
	return true
}

// feFromBig converts a (reduced or unreduced) big.Int into Montgomery form.
func feFromBig(z *fe, x *big.Int) {
	v := x
	if v.Sign() < 0 || v.Cmp(P) >= 0 {
		v = new(big.Int).Mod(x, P)
	}
	var raw fe
	feRawFromBig(&raw, v)
	feMul(z, &raw, &feR2)
}

// feRawFromBig converts a reduced big.Int into four little-endian limbs
// via the canonical byte encoding, independent of the platform's
// big.Word size (Bits() words are 32-bit on GOARCH=386/arm).
func feRawFromBig(raw *fe, v *big.Int) {
	var buf [32]byte
	v.FillBytes(buf[:])
	feRawSetBytes(raw, buf[:])
}

// feRawSetBytes decodes 32 big-endian bytes into little-endian limbs.
func feRawSetBytes(raw *fe, buf []byte) {
	for i := 0; i < 4; i++ {
		var limb uint64
		for j := 0; j < 8; j++ {
			limb = limb<<8 | uint64(buf[i*8+j])
		}
		raw[3-i] = limb
	}
}

// feToBig converts out of Montgomery form into a fresh big.Int.
func feToBig(x *fe) *big.Int {
	var raw fe
	feFromMont(&raw, x)
	var buf [32]byte
	feRawBytes(&raw, &buf)
	return new(big.Int).SetBytes(buf[:])
}

// feBytes writes the canonical 32-byte big-endian encoding of x into buf,
// matching big.Int.FillBytes on the represented value.
func feBytes(x *fe, buf *[32]byte) {
	var raw fe
	feFromMont(&raw, x)
	feRawBytes(&raw, buf)
}

// feRawBytes encodes four little-endian limbs as 32 big-endian bytes.
func feRawBytes(raw *fe, buf *[32]byte) {
	for i := 0; i < 4; i++ {
		limb := raw[3-i]
		for j := 0; j < 8; j++ {
			buf[i*8+j] = byte(limb >> (56 - 8*j))
		}
	}
}

// feSetBytes parses a 32-byte big-endian encoding, reporting whether the
// value is canonical (< P).
func feSetBytes(z *fe, buf []byte) bool {
	var raw fe
	feRawSetBytes(&raw, buf)
	if !feLessThanP(&raw) {
		return false
	}
	feMul(z, &raw, &feR2)
	return true
}

// feMulBy3 sets z = 3x via additions (cheaper than a Montgomery product).
func feMulBy3(z, x *fe) {
	var t fe
	feDouble(&t, x)
	feAdd(z, &t, x)
}

// feMulBy9 sets z = 9x mod P. It forms 9x = 8x + x as a five-limb value t
// below 9P < 2²⁵⁷, subtracts q·P for a quotient estimate q read off t's
// top bits, and finishes with one conditional subtraction.
func feMulBy9(z, x *fe) {
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	t0, c := bits.Add64(x0<<3, x0, 0)
	t1, c := bits.Add64(x1<<3|x0>>61, x1, c)
	t2, c := bits.Add64(x2<<3|x1>>61, x2, c)
	t3, c := bits.Add64(x3<<3|x2>>61, x3, c)
	t4 := x3>>61 + c
	// q = ⌊t/2²²⁴⌋ / (⌊P/2²²⁴⌋ + 1) is at most ⌊t/P⌋ and, with
	// P/2²²⁴ ≈ 8·10⁸, at most one below it, so t − q·P < 2P. The divisor
	// is a constant, which the compiler turns into a multiply.
	q := (t4<<32 | t3>>32) / (feP3>>32 + 1)
	u0, l0 := bits.Mul64(q, feP0)
	u1, l1 := bits.Mul64(q, feP1)
	u2, l2 := bits.Mul64(q, feP2)
	l3 := q * feP3 // q·P's fifth limb cancels t4, since t − q·P < 2P
	l1, c = bits.Add64(l1, u0, 0)
	l2, c = bits.Add64(l2, u1, c)
	l3, _ = bits.Add64(l3, u2, c)
	t0, b := bits.Sub64(t0, l0, 0)
	t1, b = bits.Sub64(t1, l1, b)
	t2, b = bits.Sub64(t2, l2, b)
	t3, _ = bits.Sub64(t3, l3, b)
	z[0], z[1], z[2], z[3] = feCondSubP(t0, t1, t2, t3)
}
