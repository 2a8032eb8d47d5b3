package bn254

import (
	"fmt"
	"math/big"
)

// fe2 is an element of Fp2 = Fp[i]/(i²+1), stored as c0 + c1·i with both
// coefficients in Montgomery form. It is the limb-backend counterpart of
// the gfP2 reference type: a plain value type with no interior pointers,
// so tower elements live on the stack.
type fe2 struct {
	c0, c1 fe
}

func (e *fe2) String() string {
	return fmt.Sprintf("(%v + %v·i)", feToBig(&e.c0), feToBig(&e.c1))
}

func (e *fe2) Set(a *fe2) *fe2 {
	*e = *a
	return e
}

func (e *fe2) SetZero() *fe2 {
	*e = fe2{}
	return e
}

func (e *fe2) SetOne() *fe2 {
	e.c0 = feOne
	e.c1 = fe{}
	return e
}

func (e *fe2) IsZero() bool { return e.c0.IsZero() && e.c1.IsZero() }

func (e *fe2) IsOne() bool { return e.c0.Equal(&feOne) && e.c1.IsZero() }

func (e *fe2) Equal(a *fe2) bool { return e.c0.Equal(&a.c0) && e.c1.Equal(&a.c1) }

func (e *fe2) Add(a, b *fe2) *fe2 {
	feAdd(&e.c0, &a.c0, &b.c0)
	feAdd(&e.c1, &a.c1, &b.c1)
	return e
}

func (e *fe2) Sub(a, b *fe2) *fe2 {
	feSub(&e.c0, &a.c0, &b.c0)
	feSub(&e.c1, &a.c1, &b.c1)
	return e
}

func (e *fe2) Double(a *fe2) *fe2 {
	feDouble(&e.c0, &a.c0)
	feDouble(&e.c1, &a.c1)
	return e
}

func (e *fe2) Neg(a *fe2) *fe2 {
	feNeg(&e.c0, &a.c0)
	feNeg(&e.c1, &a.c1)
	return e
}

// Conjugate sets e = a0 − a1·i.
func (e *fe2) Conjugate(a *fe2) *fe2 {
	e.c0 = a.c0
	feNeg(&e.c1, &a.c1)
	return e
}

// Mul sets e = a·b = (a0b0 − a1b1) + (a0b1 + a1b0)·i, computed with
// Karatsuba (three base-field multiplications). The sums a0+a1 and b0+b1
// stay unreduced, below 2P, which feMul accepts as operands. Receiver may
// alias either operand.
func (e *fe2) Mul(a, b *fe2) *fe2 {
	var t0, t1, sa, sb, cross fe
	feMul(&t0, &a.c0, &b.c0)
	feMul(&t1, &a.c1, &b.c1)
	feAddLazy(&sa, &a.c0, &a.c1)
	feAddLazy(&sb, &b.c0, &b.c1)
	feMul(&cross, &sa, &sb)
	feSub(&e.c0, &t0, &t1)
	feSub(&cross, &cross, &t0)
	feSub(&e.c1, &cross, &t1)
	return e
}

// MulFe sets e = a·k for k ∈ Fp.
func (e *fe2) MulFe(a *fe2, k *fe) *fe2 {
	feMul(&e.c0, &a.c0, k)
	feMul(&e.c1, &a.c1, k)
	return e
}

// Square sets e = a² = (a0+a1)(a0−a1) + 2a0a1·i, with a0+a1 unreduced
// (below 2P) as in Mul.
func (e *fe2) Square(a *fe2) *fe2 {
	var sum, diff, t1 fe
	feAddLazy(&sum, &a.c0, &a.c1)
	feSub(&diff, &a.c0, &a.c1)
	feMul(&t1, &a.c0, &a.c1)
	feMul(&e.c0, &sum, &diff)
	feDouble(&e.c1, &t1)
	return e
}

// Invert sets e = a⁻¹ = conj(a)/(a0² + a1²). Panics on zero.
func (e *fe2) Invert(a *fe2) *fe2 {
	var n0, n1, norm, inv fe
	feSquare(&n0, &a.c0)
	feSquare(&n1, &a.c1)
	feAdd(&norm, &n0, &n1)
	if norm.IsZero() {
		panic("bn254: inversion of zero in Fp2")
	}
	feInv(&inv, &norm)
	feMul(&e.c0, &a.c0, &inv)
	var negC1 fe
	feNeg(&negC1, &a.c1)
	feMul(&e.c1, &negC1, &inv)
	return e
}

// MulXi sets e = a·ξ where ξ = 9 + i is the Fp6 non-residue:
// (9a0 − a1) + (9a1 + a0)·i, via shift-and-add instead of full products.
func (e *fe2) MulXi(a *fe2) *fe2 {
	var n0, n1 fe
	feMulBy9(&n0, &a.c0)
	feMulBy9(&n1, &a.c1)
	feSub(&n0, &n0, &a.c1)
	feAdd(&e.c1, &n1, &a.c0)
	e.c0 = n0
	return e
}

// Exp sets e = a^k using square-and-multiply (k ≥ 0, not secret).
func (e *fe2) Exp(a *fe2, k *big.Int) *fe2 {
	var acc fe2
	acc.SetOne()
	base := *a
	for i := k.BitLen() - 1; i >= 0; i-- {
		acc.Square(&acc)
		if k.Bit(i) == 1 {
			acc.Mul(&acc, &base)
		}
	}
	return e.Set(&acc)
}

// Sqrt sets e to a square root of a and returns true, or returns false if
// a is not a square in Fp2, mirroring the gfP2 reference root choices
// exactly (complex method for p ≡ 3 mod 4).
func (e *fe2) Sqrt(a *fe2) bool {
	if a.IsZero() {
		e.SetZero()
		return true
	}
	if a.c1.IsZero() {
		var r fe
		if feSqrt(&r, &a.c0) {
			e.c0, e.c1 = r, fe{}
			return true
		}
		var neg fe
		feNeg(&neg, &a.c0)
		if feSqrt(&r, &neg) {
			e.c0, e.c1 = fe{}, r
			return true
		}
		return false
	}
	var n0, n1, norm, alpha fe
	feSquare(&n0, &a.c0)
	feSquare(&n1, &a.c1)
	feAdd(&norm, &n0, &n1)
	if !feSqrt(&alpha, &norm) {
		return false
	}
	var delta, x0 fe
	feAdd(&delta, &a.c0, &alpha)
	feMul(&delta, &delta, &feHalf)
	if !feSqrt(&x0, &delta) {
		feSub(&delta, &a.c0, &alpha)
		feMul(&delta, &delta, &feHalf)
		if !feSqrt(&x0, &delta) {
			return false
		}
	}
	// x1 = a1 / (2·x0)
	var den, x1 fe
	feDouble(&den, &x0)
	feInv(&den, &den)
	feMul(&x1, &a.c1, &den)
	cand := fe2{c0: x0, c1: x1}
	var check fe2
	if !check.Square(&cand).Equal(a) {
		return false
	}
	return e.Set(&cand) != nil
}

// feHalf is 1/2 mod P in Montgomery form.
var feHalf = feDeriveHalf()

func feDeriveHalf() fe {
	var z fe
	half := new(big.Int).ModInverse(big.NewInt(2), P)
	feFromBig(&z, half)
	return z
}

// fe2FromBig converts big.Int coordinates into an fe2.
func fe2FromBig(a0, a1 *big.Int) (z fe2) {
	feFromBig(&z.c0, a0)
	feFromBig(&z.c1, a1)
	return
}
