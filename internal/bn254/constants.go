// Package bn254 implements the BN254 pairing-friendly elliptic curve
// (also known as alt_bn128) with a generic Tate pairing.
//
// Alpenhorn's paper prototype uses the BN-256 curve with an AMD64 assembly
// implementation [Naehrig et al., LATINCRYPT 2010]. This package is the
// reproduction substitute: the same Barreto-Naehrig curve family at the
// 128-bit design security level, implemented from scratch so that the
// repository has no dependencies outside the Go standard library.
//
// The package provides the three pairing groups:
//
//   - G1: points on E(Fp) : y² = x³ + 3, order Order.
//   - G2: points on the sextic twist E'(Fp2) : y² = x³ + 3/ξ, order Order.
//   - GT: order-Order subgroup of Fp12*, the pairing target group.
//
// and the bilinear map Pair: G1 × G2 → GT, the reduced Tate pairing
// f_{r,P}(ψ(Q))^((p¹²−1)/r) with denominator elimination.
//
// # Backends
//
// Base-field arithmetic runs on fixed 4×64-bit-limb Montgomery elements
// (type fe): stack-allocated values, no per-operation heap allocation and
// no big.Int Mod calls. The towers Fp2/Fp6/Fp12 (fe2/fe6/fe12), the curve
// groups, and the Miller loop (Jacobian coordinates, inversion-free line
// construction) are all built on fe. The fe kernel takes no branch on an
// operand: reductions select between candidates with a borrow mask, and
// the multiply is a fused CIOS Montgomery loop over constant modulus limbs.
// Montgomery form is strictly internal: values convert at the marshaling
// boundary (feFromBig/feSetBytes on the way in, feToBig/feBytes on the way
// out), so every wire encoding is byte-identical to the original big.Int
// implementation.
//
// The original math/big implementation is retained in the ref_* files and
// fp*.go (types refG1/refG2/refGT, helpers fpAdd/fpMul/...) as an
// unexported reference backend. Differential tests cross-check the limb
// backend against it — field ops, group ops, hash-to-curve, and full
// pairings produce bit-identical results — and a relative benchmark test
// pins the limb backend's speedup so it cannot silently rot.
//
// # Fixed-base comb tables
//
// ScalarBaseMult on both groups uses Lim-Lee comb tables (comb.go): the
// 255-bit scalar is read as an 8×32 bit matrix whose j-th row is weighted
// by 2^(32j), and a 255-entry affine table holds every nonzero combination
// sum Σ 2^(32j)·G, so one multiplication costs 31 doublings plus at most
// 32 mixed additions (vs ~254 doublings + ~127 additions for the generic
// ladder). Tables build lazily on first use (sync.Once) with two
// batch-affine passes; no table entry can be the identity because every
// combination scalar is a nonzero value < 2^225 < Order. Results are
// bit-identical to ScalarMult(Generator(), k), pinned differentially on
// random and edge scalars (0, 1, r−1, r).
//
// # Batched pairings and the batch-inversion invariant
//
// PrecomputedG1.PairBatch evaluates many pairings that share a fixed G1
// argument (the mailbox-scan shape: one identity key, thousands of
// ciphertext G2 points). Per batch it pays ONE Fp12 inversion for the
// final exponentiation's easy part, shared across elements via
// Montgomery's inversion trick; the hard part runs per element through
// the Devegili-Scott decomposition (three cyclotomic exponentiations by
// the curve parameter u plus Frobenius maps) rather than a full-width
// window exponentiation. G2 inputs are subgroup-checked with the twist
// endomorphism ψ (ψ(Q) = [6u²]Q on the right subgroup), a ~127-bit ladder
// instead of a 254-bit order multiplication. The batch-inversion
// INVARIANT, relied on by every prefix-product chain in this package
// (batch.go, pairbatch.go): invalid, infinity, or otherwise skipped slots
// are masked out of the chain BEFORE it runs, never patched afterwards —
// a zero or garbage element that entered the running product would
// corrupt every later element's inverse, letting one malformed ciphertext
// poison its batch neighbors. Fuzzing pins that a genuine element always
// decrypts identically no matter what surrounds it.
//
// # Optimal-ate pairing (AtePair)
//
// Alongside the Tate pairing the package provides the optimal ate pairing
// (ate.go): the Miller loop runs over the G2 argument on the twist for
// |6u+2| ≈ 2⁶⁵ iterations in non-adjacent form — roughly a quarter of the
// Tate loop's Order.BitLen() ≈ 254 — followed by two Frobenius correction
// steps through the twist endomorphism ψ, then the same final
// exponentiation. Both maps are nondegenerate bilinear pairings on
// G1 × G2 and their reduced values differ by a FIXED exponent: e_ate =
// e_tate^κ with κ constant across all inputs. That relation is the
// differential oracle — the Tate path is retained untouched, an init-time
// check pins AtePair's consistency on generator multiples before first
// use, and tests cross-check bilinearity of both loops on random points.
// AtePrecomputedG1.PairBatch mirrors the Tate batch pipeline (same
// 4-phase structure, same shared-inversion invariant, same PairScratch)
// over the shorter loop; v2 decodes subgroup-check via the
// Galbraith–Scott ψ-ladder identity rather than the [6u²] ladder.
//
// # Boundary-conversion rule
//
// Montgomery form never crosses the package boundary: values enter the
// Montgomery domain only in unmarshal/from-big conversions and leave it
// only in marshal/to-big conversions. Batching and comb tables change
// scheduling, never representation, so every wire encoding (G1/G2/GT
// points, keys, ciphertexts, signatures) remains byte-identical to the
// big.Int reference.
//
// # Pairing-version negotiation rule
//
// The two pairings are deliberately NOT interchangeable: deriving keys
// from e_ate where a peer derives from e_tate yields unrelated secrets.
// Protocol layers therefore treat the pairing as a versioned capability
// (wire.RoundSettings.PairingVersion): v1 = Tate, v2 = optimal ate,
// negotiated per round, all participants of a round on one version, with
// transparent degradation to v1 when any participant lacks v2. Like the
// boundary-conversion rule this is representation-stable: a v1 round's
// wire bytes are byte-identical to pre-capability encodings, and v2
// changes which pairing keys a ciphertext — never any encoding.
//
// All operations on exported types are constant-structure but NOT
// constant-time; this substrate targets protocol research, not production
// deployment against local side-channel attackers.
package bn254

import "math/big"

// bigFromBase10 panics if s is not a valid base-10 integer. It is used only
// for package constants.
func bigFromBase10(s string) *big.Int {
	n, ok := new(big.Int).SetString(s, 10)
	if !ok {
		panic("bn254: invalid constant " + s)
	}
	return n
}

var (
	// u is the BN parameter: p and Order are polynomials in u.
	u = bigFromBase10("4965661367192848881")

	// P is the prime order of the base field Fp.
	// P = 36u⁴ + 36u³ + 24u² + 6u + 1.
	P = bigFromBase10("21888242871839275222246405745257275088696311157297823662689037894645226208583")

	// Order is the prime order of G1, G2, and GT.
	// Order = 36u⁴ + 36u³ + 18u² + 6u + 1.
	Order = bigFromBase10("21888242871839275222246405745257275088548364400416034343698204186575808495617")

	// curveB is the constant term in the curve equation y² = x³ + curveB.
	curveB = big.NewInt(3)
)

// Affine coordinates of the conventional G2 generator on the sextic twist
// (the alt_bn128 generator used by EIP-197), shared by the limb and
// reference backends: x = xA + xB·i, y = yA + yB·i.
var (
	g2GenXA = bigFromBase10("10857046999023057135944570762232829481370756359578518086990519993285655852781")
	g2GenXB = bigFromBase10("11559732032986387107991004021392285783925812861821192530917403151452391805634")
	g2GenYA = bigFromBase10("8495653923123431417604973247489272438418190587263600148770280649306958101930")
	g2GenYB = bigFromBase10("4082367875863433681332203403145435568316851327593401208105741076214120093531")
)

// Hoisted exponents shared by both backends (computed once instead of per
// call; fpSqrt used to rebuild (P+1)/4 on every invocation).
var (
	// pSqrtExp = (P+1)/4: square roots mod P (P ≡ 3 mod 4).
	pSqrtExp = new(big.Int).Rsh(new(big.Int).Add(P, big.NewInt(1)), 2)
	// pMinus2 = P−2: Fermat inversion exponent in Fp.
	pMinus2 = new(big.Int).Sub(P, big.NewInt(2))
)

// Rejection-sampling parameters for uniform draws from [0, P) and
// [0, Order), hoisted out of the per-call path. Both moduli are 254 bits,
// so a draw reads 32 bytes and masks the top byte to 6 bits — the exact
// consumption pattern of crypto/rand.Int, preserving deterministic test
// streams.
const (
	randByteLen = 32
	randTopMask = 0x3f
)

// tateExp is the final-exponentiation exponent (P¹² − 1) / Order, used by
// the reference backend's generic final exponentiation.
var tateExp *big.Int

func init() {
	p12 := new(big.Int).Exp(P, big.NewInt(12), nil)
	p12.Sub(p12, big.NewInt(1))
	rem := new(big.Int)
	tateExp, rem = new(big.Int).QuoRem(p12, Order, rem)
	if rem.Sign() != 0 {
		panic("bn254: Order does not divide p^12 - 1")
	}
}

// feCurveB is curveB (= 3) in Montgomery form.
var feCurveB = feMontSmall(3)

// feMontSmall converts a small non-negative integer into Montgomery form.
func feMontSmall(v int64) fe {
	var z fe
	feFromBig(&z, big.NewInt(v))
	return z
}
