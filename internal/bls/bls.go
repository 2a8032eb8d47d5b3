// Package bls implements Boneh-Lynn-Shacham short signatures and
// multisignatures over the bn254 pairing group.
//
// Alpenhorn uses BLS for the PKGSigs field of friend requests (§4.5): every
// PKG signs the tuple (identity, long-term signing key, round), and the
// client combines the signatures into a single 64-byte multisignature. A
// recipient that trusts ANY one PKG can verify that the sender's key is
// genuine by checking the multisignature against the sum of all PKG public
// keys.
//
// Every check is one optimal-ate pairing product, e(σ, −G2)·e(H(m), pk) = 1
// (bn254.AtePairingCheck); a signature check holds under any
// non-degenerate bilinear map, so the faster ate pairing changes nothing
// that verifies.
//
// The client checks each PKG's attestation share before aggregating, and
// all k shares sign the same message. VerifyBatch checks them together
// with the small-exponent test (Bellare–Garay–Rabin): with fresh nonzero
// 64-bit rᵢ from crypto/rand it accepts iff
//
//	e(Σ rᵢσᵢ, −G2) · e(H(m), Σ rᵢ·pkᵢ) = 1.
//
// Plain aggregation (all rᵢ = 1) would not do: shares σ₁+δ and σ₂−δ sum
// to a valid multisignature although neither share is valid. With random
// rᵢ, G1 and G2 of prime order r, and every point subgroup-checked when it
// is decoded, a set holding any invalid share passes with probability at
// most 1/(2⁶⁴−1) ≈ 2⁻⁶⁴: write σᵢ = H(m)·xᵢ + εᵢ; the check passes iff
// Σ rᵢεᵢ = 0, and for a fixed nonzero εⱼ at most one of the 2⁶⁴−1
// choices of rⱼ satisfies that. InvalidShare runs the batch check and
// falls back to one Verify per share only when it fails, so a bad share
// still names the PKG that sent it.
package bls

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"io"
	"math/big"

	"alpenhorn/internal/bn254"
)

const hashDomain = "bls-signature"

// Sizes of marshalled keys and signatures in bytes.
const (
	PublicKeySize  = 128
	SignatureSize  = 64
	PrivateKeySize = 32
)

// PrivateKey is a BLS signing key.
type PrivateKey struct {
	x *big.Int
}

// PublicKey is a BLS verification key (or an aggregation of several).
type PublicKey struct {
	p *bn254.G2
}

// Signature is a BLS signature (or a multisignature).
type Signature struct {
	s *bn254.G1
}

// GenerateKey creates a new key pair.
func GenerateKey(rand io.Reader) (*PublicKey, *PrivateKey, error) {
	x, err := bn254.RandomScalar(rand)
	if err != nil {
		return nil, nil, err
	}
	return &PublicKey{p: new(bn254.G2).ScalarBaseMult(x)}, &PrivateKey{x: x}, nil
}

// Sign signs msg: σ = x·H(msg) ∈ G1.
func Sign(priv *PrivateKey, msg []byte) *Signature {
	h := bn254.HashToG1(hashDomain, msg)
	return &Signature{s: new(bn254.G1).ScalarMult(h, priv.x)}
}

// Verify reports whether sig is a valid signature on msg under pub,
// checking e(σ, G2) == e(H(m), pk) as e(σ, −G2)·e(H(m), pk) == 1 with one
// optimal-ate pairing product.
func Verify(pub *PublicKey, msg []byte, sig *Signature) bool {
	if pub == nil || sig == nil || sig.s.IsInfinity() {
		return false
	}
	h := bn254.HashToG1(hashDomain, msg)
	return bn254.AtePairingCheck(sig.s, []*bn254.G1{h}, []*bn254.G2{pub.p})
}

// VerifyBatch reports whether every sigs[i] is a valid signature on the
// SAME msg under pubs[i], with one pairing product for the whole set: the
// small-exponent test in the package doc, wrong with probability at most
// 2⁻⁶⁴. It rejects an empty set and mismatched lengths. The rᵢ come from
// crypto/rand, never from a caller's (possibly seeded) reader.
func VerifyBatch(pubs []*PublicKey, msg []byte, sigs []*Signature) bool {
	if len(sigs) == 0 || len(pubs) != len(sigs) {
		return false
	}
	sumSig := new(bn254.G1).SetInfinity()
	sumPub := new(bn254.G2).SetInfinity()
	var rs bn254.G1
	var rp bn254.G2
	r := new(big.Int)
	for i, sig := range sigs {
		if pubs[i] == nil || sig == nil || sig.s.IsInfinity() {
			return false
		}
		if err := batchScalar(r); err != nil {
			return false
		}
		sumSig.Add(sumSig, rs.ScalarMult(sig.s, r))
		sumPub.Add(sumPub, rp.ScalarMult(pubs[i].p, r))
	}
	h := bn254.HashToG1(hashDomain, msg)
	return bn254.AtePairingCheck(sumSig, []*bn254.G1{h}, []*bn254.G2{sumPub})
}

// batchScalar sets r to a uniform nonzero 64-bit scalar from crypto/rand.
func batchScalar(r *big.Int) error {
	var buf [8]byte
	for {
		if _, err := rand.Read(buf[:]); err != nil {
			return err
		}
		if v := binary.BigEndian.Uint64(buf[:]); v != 0 {
			r.SetUint64(v)
			return nil
		}
	}
}

// InvalidShare returns the index of the first invalid signature among
// same-message shares (sigs[i] under pubs[i]), or -1 when all are valid.
// The common all-valid case costs one VerifyBatch; only when it fails are
// the shares verified one by one to blame the faulty signer. pubs and sigs
// must have the same length.
func InvalidShare(pubs []*PublicKey, msg []byte, sigs []*Signature) int {
	if len(pubs) != len(sigs) {
		panic("bls: InvalidShare called with mismatched lengths")
	}
	if VerifyBatch(pubs, msg, sigs) {
		return -1
	}
	for i := range sigs {
		if !Verify(pubs[i], msg, sigs[i]) {
			return i
		}
	}
	return -1
}

// AggregateSignatures combines signatures from independent signers over the
// SAME message into one multisignature.
func AggregateSignatures(sigs ...*Signature) *Signature {
	sum := new(bn254.G1).SetInfinity()
	for _, s := range sigs {
		sum.Add(sum, s.s)
	}
	return &Signature{s: sum}
}

// AggregatePublicKeys combines verification keys; a multisignature over a
// message verifies against the aggregation of the signers' keys.
//
// Note on rogue-key attacks: Alpenhorn's PKG keys are long-term and pinned
// in the client software package (§3.3), so the adversary cannot choose a
// PKG key as a function of the honest keys; plain aggregation is therefore
// safe in this deployment model.
func AggregatePublicKeys(pubs ...*PublicKey) *PublicKey {
	sum := new(bn254.G2).SetInfinity()
	for _, p := range pubs {
		sum.Add(sum, p.p)
	}
	return &PublicKey{p: sum}
}

// Marshal encodes the public key.
func (p *PublicKey) Marshal() []byte { return p.p.Marshal() }

// UnmarshalPublicKey decodes and validates a public key (curve and subgroup
// checks included).
func UnmarshalPublicKey(data []byte) (*PublicKey, error) {
	q := new(bn254.G2)
	if err := q.Unmarshal(data); err != nil {
		return nil, err
	}
	return &PublicKey{p: q}, nil
}

// Equal reports whether two public keys are the same point.
func (p *PublicKey) Equal(o *PublicKey) bool { return p.p.Equal(o.p) }

// Marshal encodes the signature.
func (s *Signature) Marshal() []byte { return s.s.Marshal() }

// UnmarshalSignature decodes and validates a signature.
func UnmarshalSignature(data []byte) (*Signature, error) {
	p := new(bn254.G1)
	if err := p.Unmarshal(data); err != nil {
		return nil, err
	}
	return &Signature{s: p}, nil
}

// Marshal encodes the private key.
func (k *PrivateKey) Marshal() []byte {
	out := make([]byte, PrivateKeySize)
	k.x.FillBytes(out)
	return out
}

// UnmarshalPrivateKey decodes a private key.
func UnmarshalPrivateKey(data []byte) (*PrivateKey, error) {
	if len(data) != PrivateKeySize {
		return nil, errors.New("bls: wrong private key length")
	}
	x := new(big.Int).SetBytes(data)
	if x.Sign() == 0 || x.Cmp(bn254.Order) >= 0 {
		return nil, errors.New("bls: private key out of range")
	}
	return &PrivateKey{x: x}, nil
}

// Public returns the public key corresponding to k.
func (k *PrivateKey) Public() *PublicKey {
	return &PublicKey{p: new(bn254.G2).ScalarBaseMult(k.x)}
}
