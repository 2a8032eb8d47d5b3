package bn254

// Tests for the branch-free base-field kernel in fe.go: its constant limbs
// against a derivation from the big.Int modulus, every operation against
// the previous kernel (fe_oracle_test.go) and against math/big on the raw
// limbs, the lazy-reduction operand bound, and a relative speed pin.

import (
	"crypto/rand"
	"math/big"
	"testing"
)

// feDeriveConstants computes the modulus limbs, −P⁻¹ mod 2⁶⁴, R² mod P,
// and R mod P (the Montgomery image of 1) from the big.Int modulus.
func feDeriveConstants() (p fe, np uint64, r2, one fe) {
	toLimbs := func(x *big.Int) (out fe) {
		if x.BitLen() > 256 {
			panic("bn254: constant exceeds four limbs")
		}
		feRawFromBig(&out, x)
		return
	}
	p = toLimbs(P)
	// Newton iteration for P⁻¹ mod 2⁶⁴; five steps double the precision
	// past 64 bits.
	inv := uint64(1)
	for i := 0; i < 6; i++ {
		inv *= 2 - p[0]*inv
	}
	np = -inv
	r := new(big.Int).Lsh(big.NewInt(1), 256)
	one = toLimbs(new(big.Int).Mod(r, P))
	r2big := new(big.Int).Lsh(big.NewInt(1), 512)
	r2 = toLimbs(r2big.Mod(r2big, P))
	return
}

func TestFeConstantsMatchDerivation(t *testing.T) {
	p, np, r2, one := feDeriveConstants()
	if got := (fe{feP0, feP1, feP2, feP3}); got != p {
		t.Errorf("P limbs %#x, derived %#x", got, p)
	}
	if feNP != np {
		t.Errorf("−P⁻¹ mod 2⁶⁴ = %#x, derived %#x", uint64(feNP), np)
	}
	if feR2 != r2 {
		t.Errorf("R² mod P limbs %#x, derived %#x", feR2, r2)
	}
	if feOne != one {
		t.Errorf("R mod P limbs %#x, derived %#x", feOne, one)
	}
	// The no-carry multiply and the 2P operand bound (4P < R) both rest
	// on P's top limb being below 2⁶².
	if feP3>>62 != 0 {
		t.Errorf("top limb %#x is not below 2⁶²", uint64(feP3))
	}
}

// rawBig is the integer held in the limbs, with no Montgomery decoding.
func rawBig(x *fe) *big.Int {
	var buf [32]byte
	feRawBytes(x, &buf)
	return new(big.Int).SetBytes(buf[:])
}

// feFromRaw puts an integer below 2²⁵⁶ into limbs as is.
func feFromRaw(v *big.Int) (z fe) {
	feRawFromBig(&z, v)
	return
}

// kernelEdgeValues are limb patterns at the borders of the carry and
// reduction logic: 0, 1, P−1, P−2, and all-ones low limbs under a top limb
// that keeps the value below P.
func kernelEdgeValues() []fe {
	pm1 := new(big.Int).Sub(P, big.NewInt(1))
	pm2 := new(big.Int).Sub(P, big.NewInt(2))
	return []fe{
		{},
		{1},
		feFromRaw(pm1),
		feFromRaw(pm2),
		{^uint64(0), ^uint64(0), ^uint64(0), 0},
		{^uint64(0), ^uint64(0), ^uint64(0), feP3 - 1},
		{^uint64(0), 0, ^uint64(0), 0},
		feOne,
	}
}

// checkKernelPair runs every kernel operation on x, y (both < P) and
// compares the limbs against the oracle kernel and against math/big
// evaluated on the raw limbs with R⁻¹ applied where Montgomery multiplies.
func checkKernelPair(t *testing.T, x, y fe) {
	t.Helper()
	X, Y := rawBig(&x), rawBig(&y)
	rInv := new(big.Int).ModInverse(new(big.Int).Lsh(big.NewInt(1), 256), P)
	mod := func(v *big.Int) *big.Int { return v.Mod(v, P) }
	mont := func(v *big.Int) *big.Int { return mod(v.Mul(v, rInv)) }

	type op struct {
		name     string
		got, ora func(z *fe)
		ref      *big.Int
	}
	ops := []op{
		{"add", func(z *fe) { feAdd(z, &x, &y) }, func(z *fe) { oracleFeAdd(z, &x, &y) },
			mod(new(big.Int).Add(X, Y))},
		{"sub", func(z *fe) { feSub(z, &x, &y) }, func(z *fe) { oracleFeSub(z, &x, &y) },
			mod(new(big.Int).Sub(X, Y))},
		{"neg", func(z *fe) { feNeg(z, &x) }, func(z *fe) { oracleFeNeg(z, &x) },
			mod(new(big.Int).Neg(X))},
		{"double", func(z *fe) { feDouble(z, &x) }, func(z *fe) { oracleFeDouble(z, &x) },
			mod(new(big.Int).Lsh(X, 1))},
		{"mul", func(z *fe) { feMul(z, &x, &y) }, func(z *fe) { oracleFeMul(z, &x, &y) },
			mont(new(big.Int).Mul(X, Y))},
		{"square", func(z *fe) { feSquare(z, &x) }, func(z *fe) { oracleFeSquare(z, &x) },
			mont(new(big.Int).Mul(X, X))},
		{"mul9", func(z *fe) { feMulBy9(z, &x) }, func(z *fe) { oracleFeMulBy9(z, &x) },
			mod(new(big.Int).Mul(X, big.NewInt(9)))},
		{"mul3", func(z *fe) { feMulBy3(z, &x) }, func(z *fe) { oracleFeAdd(z, &x, &x); oracleFeAdd(z, z, &x) },
			mod(new(big.Int).Mul(X, big.NewInt(3)))},
		{"fromMont", func(z *fe) { feFromMont(z, &x) }, func(z *fe) { oracleFeFromMont(z, &x) },
			mont(new(big.Int).Set(X))},
		{"reduce", func(z *fe) { *z = x; feReduce(z) }, func(z *fe) { *z = x; oracleFeReduce(z) },
			new(big.Int).Set(X)},
	}
	for _, o := range ops {
		var got, ora fe
		o.got(&got)
		o.ora(&ora)
		if got != ora {
			t.Fatalf("%s(%#x, %#x) = %#x, oracle %#x", o.name, x, y, got, ora)
		}
		if rawBig(&got).Cmp(o.ref) != 0 {
			t.Fatalf("%s(%#x, %#x) = %#x, math/big %#x", o.name, x, y, got, o.ref)
		}
	}
	// Aliased destinations must not change the result.
	var want fe
	feMul(&want, &x, &y)
	zx, zy := x, y
	feMul(&zx, &zx, &y)
	feMul(&zy, &x, &zy)
	if zx != want || zy != want {
		t.Fatalf("feMul with z aliasing an operand changed the product of %#x, %#x", x, y)
	}
}

func randKernelFe(t testing.TB) fe {
	t.Helper()
	v, err := randFieldElement(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return feFromRaw(v)
}

func TestFeKernelDifferential(t *testing.T) {
	edges := kernelEdgeValues()
	for _, x := range edges {
		for _, y := range edges {
			checkKernelPair(t, x, y)
		}
	}
	for i := 0; i < 2000; i++ {
		x, y := randKernelFe(t), randKernelFe(t)
		checkKernelPair(t, x, y)
		checkKernelPair(t, x, edges[i%len(edges)])
	}
}

// TestFeMulLazyOperandBound drives feMul at its documented operand bound:
// either input may be any value below 2P, as fe2.Mul and fe2.Square pass
// unreduced sums, and the product must still come out fully reduced.
func TestFeMulLazyOperandBound(t *testing.T) {
	twoP := new(big.Int).Lsh(P, 1)
	rInv := new(big.Int).ModInverse(new(big.Int).Lsh(big.NewInt(1), 256), P)
	lazy := []*big.Int{
		new(big.Int).Sub(twoP, big.NewInt(1)),
		new(big.Int).Sub(twoP, big.NewInt(2)),
		new(big.Int).Set(P),
		new(big.Int).Add(P, big.NewInt(1)),
		big.NewInt(0),
		big.NewInt(1),
	}
	for i := 0; i < 200; i++ {
		v, err := randFieldElement(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		lazy = append(lazy, v.Add(v, P))
	}
	for _, a := range lazy {
		for _, b := range lazy[:8] {
			x, y := feFromRaw(a), feFromRaw(b)
			var z fe
			feMul(&z, &x, &y)
			want := new(big.Int).Mul(a, b)
			want.Mul(want, rInv).Mod(want, P)
			if rawBig(&z).Cmp(want) != 0 {
				t.Fatalf("feMul(%v, %v) = %v, want %v", a, b, rawBig(&z), want)
			}
		}
	}
	// The largest lazy sums the towers form: (P−1) + (P−1) = 2P−2.
	pm1 := new(big.Int).Sub(P, big.NewInt(1))
	a := fe2{c0: feFromRaw(pm1), c1: feFromRaw(pm1)}
	var got, want fe2
	got.Mul(&a, &a)
	oracleFe2Mul(&want, &a, &a)
	if got != want {
		t.Fatalf("fe2.Mul at the lazy bound = %#x, oracle %#x", got, want)
	}
	got.Square(&a)
	if got != want {
		t.Fatalf("fe2.Square at the lazy bound = %#x, oracle %#x", got, want)
	}
}

// oracleFe2Mul is fe2.Mul on the oracle kernel, with reduced sums.
func oracleFe2Mul(e, a, b *fe2) {
	var t0, t1, sa, sb, cross fe
	oracleFeMul(&t0, &a.c0, &b.c0)
	oracleFeMul(&t1, &a.c1, &b.c1)
	oracleFeAdd(&sa, &a.c0, &a.c1)
	oracleFeAdd(&sb, &b.c0, &b.c1)
	oracleFeMul(&cross, &sa, &sb)
	oracleFeSub(&e.c0, &t0, &t1)
	oracleFeSub(&cross, &cross, &t0)
	oracleFeSub(&e.c1, &cross, &t1)
}

// FuzzFeKernelMatchesOracle checks every kernel operation against the
// oracle kernel and math/big on arbitrary operands, reduced mod P.
func FuzzFeKernelMatchesOracle(f *testing.F) {
	for _, x := range kernelEdgeValues() {
		var buf [32]byte
		feRawBytes(&x, &buf)
		f.Add(buf[:], buf[:])
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		operand := func(raw []byte) fe {
			v := new(big.Int).SetBytes(raw)
			return feFromRaw(v.Mod(v, P))
		}
		checkKernelPair(t, operand(a), operand(b))
	})
}

// feKernelMix runs a dependent mul/square/add/sub/mul-by-9 chain, the
// operation mix of the towers and the Miller loop.
func feKernelMix(mul, add, sub func(z, x, y *fe), square, mul9 func(z, x *fe), a, b fe) fe {
	for i := 0; i < 2000; i++ {
		mul(&a, &a, &b)
		add(&b, &b, &a)
		square(&b, &b)
		sub(&a, &a, &b)
		mul9(&b, &b)
		sub(&b, &a, &b)
	}
	return a
}

// TestFeKernelSpeedupPin guards the kernel rewrite: the mul/add/sub mix
// above must run clearly faster on the fused, branch-free kernel than on
// the oracle kernel, interleaved and each keeping its fastest run (see
// interleavedBest). The measured ratio is about 1.8x; the pin floor is
// two-thirds of that. Skipped in -short mode.
func TestFeKernelSpeedupPin(t *testing.T) {
	if testing.Short() {
		t.Skip("relative perf pin skipped in -short mode")
	}
	a, b := randKernelFe(t), randKernelFe(t)
	var sinkNew, sinkOld fe
	fast, slow := interleavedBest(25,
		func() {
			sinkNew = feKernelMix(feMul, feAdd, feSub, feSquare, feMulBy9, a, b)
		},
		func() {
			sinkOld = feKernelMix(oracleFeMul, oracleFeAdd, oracleFeSub, oracleFeSquare, oracleFeMulBy9, a, b)
		})
	if sinkNew != sinkOld {
		t.Fatalf("kernel mix diverged from the oracle: %#x vs %#x", sinkNew, sinkOld)
	}
	const floorNum, floorDen = 12, 10 // 1.2x
	if fast*floorNum > slow*floorDen {
		t.Errorf("kernel mix %v is under %d.%dx the oracle kernel %v (ratio %.2fx)",
			fast, floorNum/floorDen, floorNum%floorDen, slow, float64(slow)/float64(fast))
	}
	t.Logf("kernel mix %v vs oracle kernel %v: %.2fx", fast, slow, float64(slow)/float64(fast))
}
