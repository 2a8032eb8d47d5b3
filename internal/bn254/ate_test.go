package bn254

import (
	"crypto/rand"
	"math/big"
	"testing"
)

// TestAteBilinearity pins the optimal-ate loop against the known-scalar
// bilinearity law on both pairings: AtePair(aP, bQ) = AtePair(P, Q)^(ab)
// and the same for the retained Tate oracle. This is the testable half of
// the fixed-exponent relation e_ate = e_tate^κ: both sides are reduced
// pairings on the same groups, so agreeing with bilinearity everywhere
// forces a fixed κ (κ itself is a ~3000-bit curve constant nobody needs).
func TestAteBilinearity(t *testing.T) {
	p, q := G1Generator(), G2Generator()
	gA := AtePair(p, q)
	gT := Pair(p, q)
	if gA.IsOne() {
		t.Fatal("ate pairing is degenerate on the generators")
	}
	if gA.Equal(gT) {
		t.Fatal("ate and tate values coincide on the generators; κ = 1 means the loops are not distinct")
	}
	for i := 0; i < 4; i++ {
		a, err := RandomScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RandomScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		var ap G1
		var bq G2
		ap.ScalarMult(p, a)
		bq.ScalarMult(q, b)
		ab := new(big.Int).Mul(a, b)
		ab.Mod(ab, Order)
		if !AtePair(&ap, &bq).Equal(new(GT).Exp(gA, ab)) {
			t.Fatalf("ate bilinearity failed on trial %d", i)
		}
		if !Pair(&ap, &bq).Equal(new(GT).Exp(gT, ab)) {
			t.Fatalf("tate oracle bilinearity failed on trial %d", i)
		}
	}
}

// TestAtePairIdentity checks the identity conventions: infinity in either
// argument (and an erased precomputation) pairs to the identity of GT,
// matching Pair.
func TestAtePairIdentity(t *testing.T) {
	p, q := G1Generator(), G2Generator()
	inf1 := new(G1).SetInfinity()
	inf2 := new(G2).SetInfinity()
	if !AtePair(inf1, q).IsOne() || !AtePair(p, inf2).IsOne() || !AtePair(inf1, inf2).IsOne() {
		t.Fatal("AtePair with infinity is not the identity")
	}
	pre := AtePrecomputeG1(p)
	if !pre.Pair(inf2).IsOne() {
		t.Fatal("precomputed AtePair with infinite Q is not the identity")
	}
	pre.Erase()
	if !pre.Pair(q).IsOne() {
		t.Fatal("erased AtePrecomputedG1 does not pair to the identity")
	}
	if !AtePrecomputeG1(inf1).Pair(q).IsOne() || !AtePrecomputeG2(inf2).Pair(p).IsOne() {
		t.Fatal("precomputation of infinity does not pair to the identity")
	}
}

// TestAtePrecomputeReplay pins both fixed-argument handles against the
// scalar AtePair on random points: the fixed-G2 ladder replay and the
// fixed-G1 coordinate cache must be bit-identical to the on-the-fly loop.
func TestAtePrecomputeReplay(t *testing.T) {
	for i := 0; i < 4; i++ {
		a, err := RandomScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RandomScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		p := new(G1).ScalarBaseMult(a)
		q := new(G2).ScalarBaseMult(b)
		want := AtePair(p, q)
		if got := AtePrecomputeG1(p).Pair(q); !got.Equal(want) {
			t.Fatalf("AtePrecomputedG1.Pair disagrees with AtePair on trial %d", i)
		}
		if got := AtePrecomputeG2(q).Pair(p); !got.Equal(want) {
			t.Fatalf("AtePrecomputedG2.Pair disagrees with AtePair on trial %d", i)
		}
	}
}

// TestGSSubgroupDifferential pins the Galbraith–Scott short-vector check
// against both the generic Order ladder and the ψ-eigenvalue check:
// identical accept/reject on subgroup points, random twist points outside
// the subgroup, and infinity.
func TestGSSubgroupDifferential(t *testing.T) {
	for i := 0; i < 10; i++ {
		k, err := RandomScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		q := new(G2).ScalarBaseMult(k)
		if !q.isInSubgroupGS() {
			t.Fatalf("GS check rejected subgroup point %v·G2", k)
		}
	}
	for i := 0; i < 10; i++ {
		p := randTwistPoint(t)
		ladder := p.isInSubgroup()
		gs := p.isInSubgroupGS()
		psi := p.isInSubgroupPsi()
		if ladder != gs || psi != gs {
			t.Fatalf("subgroup check disagreement on twist point %v: ladder=%v ψ=%v GS=%v", p, ladder, psi, gs)
		}
	}
	if !new(G2).SetInfinity().isInSubgroupGS() {
		t.Fatal("GS check rejected infinity")
	}
	// Small-multiple sanity: the generator and its doubles are in the
	// subgroup.
	for _, k := range []int64{1, 2, 3, 17} {
		q := new(G2).ScalarBaseMult(big.NewInt(k))
		if !q.isInSubgroupGS() {
			t.Fatalf("GS check rejected %d·G2", k)
		}
	}
}

// TestAtePairBatchDifferential pins the v2 batch element-wise against the
// scalar ate path (Unmarshal + AtePrecomputedG1.Pair) on the full invalid-
// shape corpus: acceptance must match Unmarshal exactly, invalid slots
// must not disturb their neighbors, and every valid value must equal the
// scalar loop's.
func TestAtePairBatchDifferential(t *testing.T) {
	kp, err := RandomScalar(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	p := new(G1).ScalarBaseMult(kp)
	pre := AtePrecomputeG1(p)
	raws := batchTestInputs(t)
	n := len(raws)
	dst := make([]GT, n)
	ok := make([]bool, n)
	pre.PairBatch(raws, dst, ok, NewPairScratch(n))
	for i, raw := range raws {
		var q G2
		uerr := q.Unmarshal(raw)
		if ok[i] != (uerr == nil) {
			t.Fatalf("element %d: batch ok=%v but Unmarshal err=%v", i, ok[i], uerr)
		}
		if uerr != nil {
			if !dst[i].IsOne() {
				t.Fatalf("element %d: invalid slot produced a non-identity value", i)
			}
			continue
		}
		if want := pre.Pair(&q); !dst[i].Equal(want) {
			t.Fatalf("element %d: batch value disagrees with scalar ate path", i)
		}
	}

	// The precomputation of infinity accepts/rejects identically and
	// yields the identity everywhere.
	infPre := AtePrecomputeG1(new(G1).SetInfinity())
	infPre.PairBatch(raws, dst, ok, nil)
	for i, raw := range raws {
		var q G2
		uerr := q.Unmarshal(raw)
		if ok[i] != (uerr == nil) {
			t.Fatalf("inf element %d: batch ok=%v but Unmarshal err=%v", i, ok[i], uerr)
		}
		if !dst[i].IsOne() {
			t.Fatalf("inf element %d: pairing with infinity is not the identity", i)
		}
	}
}

// TestAtePairBatchAllocations pins the v2 batch at zero heap allocations
// per call once the scratch is warm, like the v1 batch.
func TestAtePairBatchAllocations(t *testing.T) {
	k, err := RandomScalar(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	pre := AtePrecomputeG1(new(G1).ScalarBaseMult(k))
	const n = 4
	raws := make([][]byte, n)
	for i := range raws {
		ki, err := RandomScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		raws[i] = new(G2).ScalarBaseMult(ki).Marshal()
	}
	raws[1] = make([]byte, g2MarshalledSize)
	dst := make([]GT, n)
	ok := make([]bool, n)
	scratch := NewPairScratch(n)
	pre.PairBatch(raws, dst, ok, scratch)
	allocs := testing.AllocsPerRun(3, func() {
		pre.PairBatch(raws, dst, ok, scratch)
	})
	if allocs != 0 {
		t.Fatalf("ate PairBatch allocated %.1f times per batch; want 0", allocs)
	}
}

// TestAteBatchSpeedupPin guards the tentpole: the v2 ate batch must beat
// the v1 Tate batch on the same inputs by a clear margin. The acceptance
// target is 1.8x and the measured ratio is ~2x (a 65- vs 254-iteration
// Miller loop plus the short-vector subgroup check); the pin floor is 1.5x
// so scheduler noise cannot flake the suite while a real regression (a
// lost correction step, a generic subgroup ladder) still trips it. The
// two batches run interleaved (interleavedBest), so background load
// slows both alike. Skipped in -short mode.
func TestAteBatchSpeedupPin(t *testing.T) {
	if testing.Short() {
		t.Skip("relative perf pin skipped in -short mode")
	}
	k, err := RandomScalar(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	p := new(G1).ScalarBaseMult(k)
	tatePre := PrecomputeG1(p)
	atePre := AtePrecomputeG1(p)
	const n = 8
	raws := make([][]byte, n)
	for i := range raws {
		ki, err := RandomScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		raws[i] = new(G2).ScalarBaseMult(ki).Marshal()
	}
	dst := make([]GT, n)
	ok := make([]bool, n)
	scratch := NewPairScratch(n)
	atePre.PairBatch(raws, dst, ok, scratch) // warm scratch + oracle check

	ate, tate := interleavedBest(9,
		func() { atePre.PairBatch(raws, dst, ok, scratch) },
		func() { tatePre.PairBatch(raws, dst, ok, scratch) })

	const floorNum, floorDen = 15, 10 // 1.5x
	if ate*floorNum > tate*floorDen {
		t.Errorf("ate batch %v is under %d.%dx the tate batch %v (ratio %.2fx)",
			ate, floorNum/floorDen, floorNum%floorDen, tate, float64(tate)/float64(ate))
	}
	t.Logf("ate batch %v vs tate batch %v: %.2fx (%d elements)",
		ate, tate, float64(tate)/float64(ate), n)
}

func BenchmarkAtePair(b *testing.B) {
	k, err := RandomScalar(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	p := new(G1).ScalarBaseMult(k)
	q := G2Generator()
	pre := AtePrecomputeG1(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pre.Pair(q)
	}
}

func BenchmarkAtePairBatch(b *testing.B) {
	k, err := RandomScalar(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	pre := AtePrecomputeG1(new(G1).ScalarBaseMult(k))
	const n = 32
	raws := make([][]byte, n)
	for i := range raws {
		ki, err := RandomScalar(rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		raws[i] = new(G2).ScalarBaseMult(ki).Marshal()
	}
	dst := make([]GT, n)
	ok := make([]bool, n)
	scratch := NewPairScratch(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pre.PairBatch(raws, dst, ok, scratch)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/pairing")
}
