package core

import (
	"context"
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"alpenhorn/internal/bls"
	"alpenhorn/internal/ibe"
	"alpenhorn/internal/pkgserver"
	"alpenhorn/internal/wire"
)

// extractPKG is an in-memory PKG for the extraction step: it returns a
// real identity key share and a BLS attestation share, or misbehaves as
// configured.
type extractPKG struct {
	msk     *ibe.MasterPrivateKey
	blsPriv *bls.PrivateKey

	badShare bool          // attest a different message
	fail     error         // fail the extraction
	block    bool          // park until the caller cancels
	entered  chan struct{} // if set, receives once per Extract call
	release  chan struct{} // if set, Extract waits for it to close
}

func (p *extractPKG) Register(context.Context, string, ed25519.PublicKey) error { return nil }
func (p *extractPKG) ConfirmRegistration(context.Context, string, string) error { return nil }
func (p *extractPKG) Deregister(context.Context, string, []byte) error          { return nil }

func (p *extractPKG) Extract(ctx context.Context, email string, round uint32, sig []byte) (*pkgserver.ExtractReply, error) {
	if p.entered != nil {
		p.entered <- struct{}{}
	}
	if p.release != nil {
		select {
		case <-p.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if p.block {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	if p.fail != nil {
		return nil, p.fail
	}
	return &pkgserver.ExtractReply{
		IdentityKey: ibe.Extract(p.msk, email),
		Attestation: bls.Sign(p.blsPriv, p.attested(email, round)),
	}, nil
}

// attested is the message the PKG signs: the real attestation message,
// or another round's when the share is meant to be bad.
func (p *extractPKG) attested(email string, round uint32) []byte {
	if p.badShare {
		round++
	}
	return wire.AttestationMessage(email, extractTestKey.Public().(ed25519.PublicKey), round)
}

var extractTestKey = ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))

// newExtractClient builds a bare client over k in-memory PKGs.
func newExtractClient(t *testing.T, k int) (*Client, []*extractPKG) {
	t.Helper()
	pkgs := make([]*extractPKG, k)
	cfg := Config{Email: "extract@example.org", Handler: &backlogHandler{}}
	for i := range pkgs {
		_, msk, err := ibe.Setup(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		pub, priv, err := bls.GenerateKey(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		pkgs[i] = &extractPKG{msk: msk, blsPriv: priv}
		cfg.PKGs = append(cfg.PKGs, pkgs[i])
		cfg.PKGBLSKeys = append(cfg.PKGBLSKeys, pub)
	}
	c := &Client{
		cfg:         cfg,
		signingPub:  extractTestKey.Public().(ed25519.PublicKey),
		signingPriv: extractTestKey,
		friends:     make(map[string]*Friend),
		pending:     make(map[string]*pendingFriend),
		roundKeys:   make(map[uint32]*roundSecrets),
	}
	return c, pkgs
}

func (c *Client) cachedRoundKeys() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.roundKeys)
}

// TestExtractRoundKeysBlamesBadShare: one bad attestation share among k
// fails the round's extraction with an error naming exactly that PKG,
// and no round keys are cached.
func TestExtractRoundKeysBlamesBadShare(t *testing.T) {
	const k = 3
	for bad := 0; bad < k; bad++ {
		c, pkgs := newExtractClient(t, k)
		pkgs[bad].badShare = true
		err := c.extractRoundKeys(context.Background(), 7)
		want := fmt.Sprintf("PKG %d returned invalid attestation", bad)
		if err == nil || err.Error() != want {
			t.Fatalf("bad share at PKG %d: got %v, want %q", bad, err, want)
		}
		if n := c.cachedRoundKeys(); n != 0 {
			t.Fatalf("bad share at PKG %d: %d round keys cached", bad, n)
		}
	}

	c, _ := newExtractClient(t, k)
	if err := c.extractRoundKeys(context.Background(), 7); err != nil {
		t.Fatalf("honest PKGs: %v", err)
	}
	if n := c.cachedRoundKeys(); n != 1 {
		t.Fatalf("honest PKGs: %d round keys cached, want 1", n)
	}
}

// TestExtractRoundKeysFailingPKG: a PKG whose extraction fails fails the
// round with its index and its error, cancels the extractions still in
// flight, and leaves no round keys cached.
func TestExtractRoundKeysFailingPKG(t *testing.T) {
	const k = 3
	errDown := errors.New("pkg down")
	for failing := 0; failing < k; failing++ {
		c, pkgs := newExtractClient(t, k)
		for i, p := range pkgs {
			if i == failing {
				p.fail = errDown
			} else {
				p.block = true // only the cancellation releases them
			}
		}
		done := make(chan error, 1)
		go func() { done <- c.extractRoundKeys(context.Background(), 7) }()
		var err error
		select {
		case err = <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("extraction did not cancel the PKGs still in flight")
		}
		if !errors.Is(err, errDown) || !strings.HasPrefix(err.Error(), fmt.Sprintf("PKG %d: ", failing)) {
			t.Fatalf("failing PKG %d: got %v", failing, err)
		}
		if n := c.cachedRoundKeys(); n != 0 {
			t.Fatalf("failing PKG %d: %d round keys cached", failing, n)
		}
	}
}

// TestExtractRoundKeysConcurrent: the k Extract calls are in flight at
// the same time — every PKG is entered before any of them answers.
func TestExtractRoundKeysConcurrent(t *testing.T) {
	const k = 3
	c, pkgs := newExtractClient(t, k)
	entered := make(chan struct{}, k)
	release := make(chan struct{})
	for _, p := range pkgs {
		p.entered, p.release = entered, release
	}
	done := make(chan error, 1)
	go func() { done <- c.extractRoundKeys(context.Background(), 7) }()
	for i := 0; i < k; i++ {
		select {
		case <-entered:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d PKGs were asked before any answered", i, k)
		}
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := c.cachedRoundKeys(); n != 1 {
		t.Fatalf("%d round keys cached, want 1", n)
	}
}
