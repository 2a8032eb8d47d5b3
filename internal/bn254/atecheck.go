package bn254

import "sync"

// negG2Lines is the optimal-ate line table of the negated G2 generator —
// the fixed second argument of every BLS check, e(σ, −G2)·e(H(m), pk) = 1.
// It is built on first use, once per process (~89 line triples, ~17 KB).
var negG2Lines = sync.OnceValue(func() []ateLineCoeff {
	return g2AteLines(new(G2).Neg(G2Generator()))
})

// AtePairingCheck reports whether
//
//	AtePair(s, −G2) · ∏ AtePair(ps[i], qs[i]) == 1
//
// where −G2 is the negated G2 generator; a nil or infinite s drops that
// term. This is the shape of a BLS verification: the s term replays the
// cached −G2 line table, every other term runs a fresh ~65-iteration ate
// Miller loop, and the Miller values are multiplied before ONE shared
// decomposed final exponentiation. A product of reduced pairings is 1
// under every non-degenerate bilinear map on these groups, so the check
// accepts exactly what the Tate check (TatePairingCheck) accepts.
func AtePairingCheck(s *G1, ps []*G1, qs []*G2) bool {
	if len(ps) != len(qs) {
		return false
	}
	var acc, f fe12
	acc.SetOne()
	nontrivial := false
	if s != nil && !s.IsInfinity() {
		ateEvalLinesInto(&acc, negG2Lines(), &s.x, &s.y)
		nontrivial = true
	}
	for i := range ps {
		if ps[i].IsInfinity() || qs[i].IsInfinity() {
			continue
		}
		ateMillerInto(&f, &ps[i].x, &ps[i].y, qs[i])
		acc.Mul(&acc, &f)
		nontrivial = true
	}
	if !nontrivial {
		return true
	}
	return finalExpDecomp(&acc).IsOne()
}
