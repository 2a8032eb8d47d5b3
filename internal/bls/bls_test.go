package bls

import (
	"crypto/rand"
	"testing"

	"alpenhorn/internal/bn254"
)

func TestSignVerify(t *testing.T) {
	pub, priv, err := GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("alice@example.org|signing-key|round-42")
	sig := Sign(priv, msg)
	if !Verify(pub, msg, sig) {
		t.Fatal("valid signature rejected")
	}
	if Verify(pub, []byte("different message"), sig) {
		t.Fatal("signature verified for wrong message")
	}
	otherPub, _, _ := GenerateKey(rand.Reader)
	if Verify(otherPub, msg, sig) {
		t.Fatal("signature verified under wrong key")
	}
}

func TestMultisignature(t *testing.T) {
	// The PKGSigs use case (§4.5): n PKGs sign the same message; the
	// aggregate verifies under the aggregate public key.
	msg := []byte("bob@example.org|key|round-7")
	var pubs []*PublicKey
	var sigs []*Signature
	for i := 0; i < 3; i++ {
		pub, priv, err := GenerateKey(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		pubs = append(pubs, pub)
		sigs = append(sigs, Sign(priv, msg))
	}
	aggSig := AggregateSignatures(sigs...)
	aggPub := AggregatePublicKeys(pubs...)
	if !Verify(aggPub, msg, aggSig) {
		t.Fatal("multisignature rejected")
	}

	// Dropping one signature must break verification: a recipient is
	// guaranteed that ALL PKGs (including the honest one) attested.
	partial := AggregateSignatures(sigs[:2]...)
	if Verify(aggPub, msg, partial) {
		t.Fatal("partial multisignature accepted")
	}
}

func TestMultisignatureForgeryByDishonestMajority(t *testing.T) {
	// Even n−1 colluding PKGs cannot produce a multisignature that
	// verifies under an aggregate including the honest PKG's key.
	msg := []byte("victim@example.org|fake-key|round-9")
	honestPub, _, err := GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	var dishonestSigs []*Signature
	var allPubs = []*PublicKey{honestPub}
	for i := 0; i < 2; i++ {
		pub, priv, _ := GenerateKey(rand.Reader)
		allPubs = append(allPubs, pub)
		dishonestSigs = append(dishonestSigs, Sign(priv, msg))
	}
	forged := AggregateSignatures(dishonestSigs...)
	if Verify(AggregatePublicKeys(allPubs...), msg, forged) {
		t.Fatal("forgery without honest PKG's signature accepted")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	pub, priv, err := GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("round-trip")
	sig := Sign(priv, msg)

	pub2, err := UnmarshalPublicKey(pub.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	sig2, err := UnmarshalSignature(sig.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !Verify(pub2, msg, sig2) {
		t.Fatal("round-tripped signature rejected")
	}
	if !pub.Equal(pub2) {
		t.Fatal("public key round-trip not equal")
	}

	priv2, err := UnmarshalPrivateKey(priv.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !Verify(pub, msg, Sign(priv2, msg)) {
		t.Fatal("round-tripped private key produces bad signatures")
	}
	if !priv.Public().Equal(pub) {
		t.Fatal("Public() disagrees with GenerateKey")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalPublicKey(make([]byte, 10)); err == nil {
		t.Fatal("short public key accepted")
	}
	bad := make([]byte, PublicKeySize)
	bad[0] = 0xff
	if _, err := UnmarshalPublicKey(bad); err == nil {
		t.Fatal("invalid public key accepted")
	}
	if _, err := UnmarshalPrivateKey(make([]byte, PrivateKeySize)); err == nil {
		t.Fatal("zero private key accepted")
	}
}

func TestSignatureSizeConstant(t *testing.T) {
	// Multisig compactness: aggregating does not grow the signature.
	msg := []byte("m")
	var sigs []*Signature
	for i := 0; i < 5; i++ {
		_, priv, _ := GenerateKey(rand.Reader)
		sigs = append(sigs, Sign(priv, msg))
	}
	agg := AggregateSignatures(sigs...)
	if len(agg.Marshal()) != SignatureSize {
		t.Fatalf("aggregate signature size %d, want %d", len(agg.Marshal()), SignatureSize)
	}
}

// TestVerifyMatchesTwoPairReconstruction pins Verify — one optimal-ate
// pairing product through the decomposed final exponentiation — against
// the Tate oracle: the textbook two-pairing reconstruction
// e(σ, G2) == e(H(m), pk) computed via bn254.Pair, which retains the
// generic windowed final exponentiation. The two paths must agree on valid
// signatures, tampered messages, tampered signatures, mismatched keys and
// infinity inputs.
func TestVerifyMatchesTwoPairReconstruction(t *testing.T) {
	reconstruct := func(pub *PublicKey, msg []byte, sig *Signature) bool {
		if pub == nil || sig == nil || sig.s.IsInfinity() {
			return false
		}
		h := bn254.HashToG1("bls-signature", msg)
		return bn254.Pair(sig.s, bn254.G2Generator()).Equal(bn254.Pair(h, pub.p))
	}
	pub, priv, err := GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	otherPub, _, err := GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("pkg attests bob@example.org at round 42")
	sig := Sign(priv, msg)
	tamperedSig := &Signature{s: new(bn254.G1).Add(sig.s, sig.s)}
	infSig := &Signature{s: new(bn254.G1).SetInfinity()}
	infPub := &PublicKey{p: new(bn254.G2).SetInfinity()}
	cases := []struct {
		name string
		pub  *PublicKey
		msg  []byte
		sig  *Signature
		want bool
	}{
		{"valid", pub, msg, sig, true},
		{"tampered message", pub, []byte("pkg attests eve@example.org at round 42"), sig, false},
		{"tampered signature", pub, msg, tamperedSig, false},
		{"wrong key", otherPub, msg, sig, false},
		{"infinite signature", pub, msg, infSig, false},
		{"infinite key", infPub, msg, sig, false},
		{"nil signature", pub, msg, nil, false},
	}
	for _, c := range cases {
		got := Verify(c.pub, c.msg, c.sig)
		oracle := reconstruct(c.pub, c.msg, c.sig)
		if got != c.want || oracle != c.want {
			t.Fatalf("%s: Verify=%v oracle=%v want=%v", c.name, got, oracle, c.want)
		}
	}
}

// shares returns k same-message signatures with their keys.
func shares(t testing.TB, k int, msg []byte) ([]*PublicKey, []*Signature) {
	t.Helper()
	pubs := make([]*PublicKey, k)
	sigs := make([]*Signature, k)
	for i := range pubs {
		pub, priv, err := GenerateKey(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		pubs[i], sigs[i] = pub, Sign(priv, msg)
	}
	return pubs, sigs
}

// TestVerifyBatchRejectsOneBadShare: for k = 1…5 a valid set passes the
// batch check, and replacing any single share — with another signer's
// share, a signature on another message, or the identity — fails it, and
// InvalidShare names exactly that share.
func TestVerifyBatchRejectsOneBadShare(t *testing.T) {
	msg := []byte("pkg attests carol@example.org at round 3")
	_, strangers := shares(t, 1, msg)
	_, otherMsg := shares(t, 1, []byte("another message"))
	bad := map[string]*Signature{
		"stranger's share":  strangers[0],
		"other message":     otherMsg[0],
		"identity element":  {s: new(bn254.G1).SetInfinity()},
		"missing signature": nil,
	}
	for k := 1; k <= 5; k++ {
		pubs, sigs := shares(t, k, msg)
		if !VerifyBatch(pubs, msg, sigs) {
			t.Fatalf("k=%d: valid shares rejected", k)
		}
		if got := InvalidShare(pubs, msg, sigs); got != -1 {
			t.Fatalf("k=%d: InvalidShare blamed share %d of a valid set", k, got)
		}
		for j := 0; j < k; j++ {
			for name, b := range bad {
				tampered := append([]*Signature(nil), sigs...)
				tampered[j] = b
				if VerifyBatch(pubs, msg, tampered) {
					t.Fatalf("k=%d: batch accepted %s at share %d", k, name, j)
				}
				if got := InvalidShare(pubs, msg, tampered); got != j {
					t.Fatalf("k=%d: %s at share %d blamed share %d", k, name, j, got)
				}
			}
		}
	}
}

// TestVerifyBatchRejectsCancellingShares is the reason for the random
// coefficients: shares σ₁+δ and σ₂−δ aggregate to a valid multisignature,
// so plain aggregation would accept them, but each share is invalid and
// the small-exponent batch check must reject the set.
func TestVerifyBatchRejectsCancellingShares(t *testing.T) {
	msg := []byte("pkg attests dave@example.org at round 8")
	pubs, sigs := shares(t, 3, msg)
	delta := bn254.HashToG1("cancelling-delta", msg)
	sigs[0] = &Signature{s: new(bn254.G1).Add(sigs[0].s, delta)}
	sigs[1] = &Signature{s: new(bn254.G1).Add(sigs[1].s, new(bn254.G1).Neg(delta))}
	if !Verify(AggregatePublicKeys(pubs...), msg, AggregateSignatures(sigs...)) {
		t.Fatal("test setup: cancelling shares should aggregate to a valid multisignature")
	}
	if VerifyBatch(pubs, msg, sigs) {
		t.Fatal("batch check accepted cancelling bad shares")
	}
	if got := InvalidShare(pubs, msg, sigs); got != 0 {
		t.Fatalf("InvalidShare blamed share %d, want 0", got)
	}
}

func TestVerifyBatchRejectsMalformedSets(t *testing.T) {
	msg := []byte("m")
	pubs, sigs := shares(t, 2, msg)
	if VerifyBatch(nil, msg, nil) {
		t.Fatal("empty set accepted")
	}
	if VerifyBatch(pubs[:1], msg, sigs) {
		t.Fatal("mismatched lengths accepted")
	}
	if VerifyBatch([]*PublicKey{pubs[0], nil}, msg, sigs) {
		t.Fatal("nil key accepted")
	}
}

func BenchmarkVerify(b *testing.B) {
	msg := []byte("bench")
	pubs, sigs := shares(b, 1, msg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Verify(pubs[0], msg, sigs[0])
	}
}

// BenchmarkVerifyBatch3 is the client's per-round attestation check: k=3
// PKG shares in one batch.
func BenchmarkVerifyBatch3(b *testing.B) {
	msg := []byte("bench")
	pubs, sigs := shares(b, 3, msg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		VerifyBatch(pubs, msg, sigs)
	}
}
