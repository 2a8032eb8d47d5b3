package bn254

import (
	"crypto/rand"
	"testing"
)

// blsShape returns a BLS-shaped instance: a signature σ = x·H, the hashed
// message point H and the verification key x·G2.
func blsShape(t testing.TB, msg string) (sig, h *G1, pk *G2) {
	t.Helper()
	x, err := RandomScalar(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	h = HashToG1("atecheck-test", []byte(msg))
	return new(G1).ScalarMult(h, x), h, new(G2).ScalarBaseMult(x)
}

// TestAtePairingCheckMatchesTate pins AtePairingCheck against the Tate
// oracle TatePairingCheck on the BLS equation e(σ, −G2)·e(H, pk) = 1 for
// valid, tampered-signature, wrong-key, wrong-message and infinity inputs,
// and pins the cached −G2 line table against a fresh ladder on the same
// point.
func TestAtePairingCheckMatchesTate(t *testing.T) {
	sig, h, pk := blsShape(t, "m")
	_, otherH, otherPK := blsShape(t, "other message")
	negG2 := new(G2).Neg(G2Generator())
	inf := new(G1).SetInfinity()
	cases := []struct {
		name  string
		sig   *G1
		h     *G1
		pk    *G2
		valid bool
	}{
		{"valid", sig, h, pk, true},
		{"tampered signature", new(G1).Add(sig, h), h, pk, false},
		{"wrong key", sig, h, otherPK, false},
		{"wrong message", sig, otherH, pk, false},
		{"infinite signature", inf, h, pk, false},
		{"infinite key", sig, h, new(G2).SetInfinity(), false},
		{"all infinite", inf, inf, pk, true},
	}
	for _, c := range cases {
		ate := AtePairingCheck(c.sig, []*G1{c.h}, []*G2{c.pk})
		fresh := AtePairingCheck(nil, []*G1{c.sig, c.h}, []*G2{negG2, c.pk})
		tate := TatePairingCheck([]*G1{c.sig, c.h}, []*G2{negG2, c.pk})
		if ate != c.valid || fresh != c.valid || tate != c.valid {
			t.Errorf("%s: ate=%v fresh-ladder ate=%v tate=%v, want %v", c.name, ate, fresh, tate, c.valid)
		}
	}
	if AtePairingCheck(sig, []*G1{h}, nil) {
		t.Error("AtePairingCheck accepted mismatched lengths")
	}
	if !AtePairingCheck(nil, nil, nil) {
		t.Error("AtePairingCheck rejected the empty product")
	}
}

// TestAtePairingCheckConcurrent runs checks from several goroutines at
// once, so the race detector sees the shared −G2 line table being built
// and read concurrently.
func TestAtePairingCheckConcurrent(t *testing.T) {
	sig, h, pk := blsShape(t, "concurrent")
	const workers = 4
	results := make(chan bool, workers)
	for i := 0; i < workers; i++ {
		go func() { results <- AtePairingCheck(sig, []*G1{h}, []*G2{pk}) }()
	}
	for i := 0; i < workers; i++ {
		if !<-results {
			t.Fatal("valid check failed under concurrency")
		}
	}
}

func BenchmarkAtePairingCheck(b *testing.B) {
	sig, h, pk := blsShape(b, "bench")
	AtePairingCheck(sig, []*G1{h}, []*G2{pk}) // build the −G2 table
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AtePairingCheck(sig, []*G1{h}, []*G2{pk})
	}
}

func BenchmarkTatePairingCheck(b *testing.B) {
	sig, h, pk := blsShape(b, "bench")
	negG2 := new(G2).Neg(G2Generator())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TatePairingCheck([]*G1{sig, h}, []*G2{negG2, pk})
	}
}
