package coordinator

import (
	"crypto/rand"
	"errors"
	"testing"

	"alpenhorn/internal/bloom"
	"alpenhorn/internal/cdn"
	emailpkg "alpenhorn/internal/email"
	"alpenhorn/internal/entry"
	"alpenhorn/internal/keywheel"
	"alpenhorn/internal/mixnet"
	"alpenhorn/internal/noise"
	"alpenhorn/internal/onionbox"
	"alpenhorn/internal/pkgserver"
	"alpenhorn/internal/wire"
)

func newTestCoordinator(t *testing.T, numMixers, numPKGs int) *Coordinator {
	t.Helper()
	provider := emailpkg.NewInMemoryProvider()
	var pkgs []*pkgserver.Server
	for i := 0; i < numPKGs; i++ {
		p, err := pkgserver.New(pkgserver.Config{Name: "p", Provider: provider})
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	nz := noise.Laplace{Mu: 1, B: 0}
	var mixers []*mixnet.Server
	for i := 0; i < numMixers; i++ {
		m, err := mixnet.New(mixnet.Config{
			Name: "m", Position: i, ChainLength: numMixers,
			AddFriendNoise: &nz, DialingNoise: &nz,
		})
		if err != nil {
			t.Fatal(err)
		}
		mixers = append(mixers, m)
	}
	return New(entry.New(), mixers, pkgs, cdn.NewStore(0))
}

func TestAddFriendRoundLifecycle(t *testing.T) {
	c := newTestCoordinator(t, 3, 2)
	settings, err := c.OpenAddFriendRound(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(settings.Mixers) != 3 || len(settings.PKGs) != 2 {
		t.Fatalf("settings: %d mixers, %d PKGs", len(settings.Mixers), len(settings.PKGs))
	}
	// Settings are served by the entry server.
	got, err := c.Entry.Settings(wire.AddFriend, 1)
	if err != nil || got.NumMailboxes != settings.NumMailboxes {
		t.Fatal("entry does not serve settings")
	}

	mailboxes, err := c.CloseRound(wire.AddFriend, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(mailboxes) != int(settings.NumMailboxes) {
		t.Fatalf("%d mailboxes, want %d", len(mailboxes), settings.NumMailboxes)
	}
	if !c.CDN.Published(wire.AddFriend, 1) {
		t.Fatal("mailboxes not published")
	}
	// Mixer round keys erased. PKG master keys are erased concurrently
	// with the mix (extraction only happens during the submission
	// window), so they are gone by the time CloseRound returns.
	for _, m := range c.Mixers {
		if m.(*mixnet.Server).RoundOpen(wire.AddFriend, 1) {
			t.Fatal("mixer round key survives close")
		}
	}
	for _, p := range c.PKGs {
		if p.(*pkgserver.Server).RoundOpen(1) {
			t.Fatal("PKG round key survives close")
		}
	}
	// The explicit finish hook stays idempotent.
	c.FinishAddFriendRound(1)
	for _, p := range c.PKGs {
		if p.(*pkgserver.Server).RoundOpen(1) {
			t.Fatal("PKG round open after finish")
		}
	}
}

// TestFinishBeforeCloseStillErases: a driver that opens an add-friend
// round but aborts before CloseRound can still erase the PKG keys with
// the explicit hook.
func TestFinishBeforeCloseStillErases(t *testing.T) {
	c := newTestCoordinator(t, 1, 2)
	if _, err := c.OpenAddFriendRound(7); err != nil {
		t.Fatal(err)
	}
	c.FinishAddFriendRound(7)
	for _, p := range c.PKGs {
		if p.(*pkgserver.Server).RoundOpen(7) {
			t.Fatal("PKG round open after explicit finish")
		}
	}
}

func TestDialingRoundLifecycle(t *testing.T) {
	c := newTestCoordinator(t, 2, 1)
	settings, err := c.OpenDialingRound(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(settings.PKGs) != 0 {
		t.Fatal("dialing settings should have no PKG keys")
	}
	mailboxes, err := c.CloseRound(wire.Dialing, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Every mailbox is a valid Bloom filter.
	for id, data := range mailboxes {
		if _, err := bloom.Unmarshal(data); err != nil {
			t.Fatalf("mailbox %d: %v", id, err)
		}
	}
}

func TestMailboxCountScalesWithVolume(t *testing.T) {
	c := newTestCoordinator(t, 3, 1)
	c.TargetRequestsPerMailbox = 10 // noise = 3 servers × 1 = 3/mailbox

	c.SetExpectedVolume(wire.Dialing, 0)
	s1, err := c.OpenDialingRound(1)
	if err != nil {
		t.Fatal(err)
	}
	if s1.NumMailboxes != 1 {
		t.Fatalf("empty volume: K = %d, want 1", s1.NumMailboxes)
	}
	if _, err := c.CloseRound(wire.Dialing, 1); err != nil {
		t.Fatal(err)
	}

	c.SetExpectedVolume(wire.Dialing, 700)
	s2, err := c.OpenDialingRound(2)
	if err != nil {
		t.Fatal(err)
	}
	// realPerMailbox target = 10 − 3 = 7 → K = 700/7 = 100.
	if s2.NumMailboxes != 100 {
		t.Fatalf("high volume: K = %d, want 100", s2.NumMailboxes)
	}
}

func TestCloseUnopenedRoundFails(t *testing.T) {
	c := newTestCoordinator(t, 1, 1)
	if _, err := c.CloseRound(wire.Dialing, 42); err == nil {
		t.Fatal("closing unopened round succeeded")
	}
}

// submitDialTokens wraps one dial onion per token, addressed round-robin to
// the round's mailboxes, and submits them to the entry server.
func submitDialTokens(t *testing.T, c *Coordinator, settings *wire.RoundSettings, tokens [][]byte) {
	t.Helper()
	hops := make([]*onionbox.PublicKey, len(settings.Mixers))
	for i, rk := range settings.Mixers {
		pk, err := onionbox.UnmarshalPublicKey(rk.OnionKey)
		if err != nil {
			t.Fatal(err)
		}
		hops[i] = pk
	}
	for i, tok := range tokens {
		payload := (&wire.MixPayload{Mailbox: uint32(i) % settings.NumMailboxes, Body: tok}).Marshal()
		onion, err := onionbox.WrapOnion(rand.Reader, hops, payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Entry.Submit(settings.Service, settings.Round, onion); err != nil {
			t.Fatal(err)
		}
	}
}

func makeTokens(n int) [][]byte {
	tokens := make([][]byte, n)
	for i := range tokens {
		tok := make([]byte, keywheel.TokenSize)
		tok[0], tok[1], tok[2] = byte(i), byte(i>>8), 0xCD
		tokens[i] = tok
	}
	return tokens
}

// TestPipelinedRoundDeliversTokens runs a full dialing round through the
// streaming pipeline (small chunks, so every server sees multiple chunks)
// and checks it delivers every token to its mailbox.
func TestPipelinedRoundDeliversTokens(t *testing.T) {
	c := newTestCoordinator(t, 3, 0)
	c.ChunkSize = 16
	c.TargetRequestsPerMailbox = 40
	c.SetExpectedVolume(wire.Dialing, 120)

	settings, err := c.OpenDialingRound(1)
	if err != nil {
		t.Fatal(err)
	}
	if settings.NumMailboxes < 2 {
		t.Fatalf("want a multi-mailbox round, got K=%d", settings.NumMailboxes)
	}
	tokens := makeTokens(120)
	submitDialTokens(t, c, settings, tokens)

	mailboxes, err := c.CloseRound(wire.Dialing, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, tok := range tokens {
		mb := uint32(i) % settings.NumMailboxes
		f, err := bloom.Unmarshal(mailboxes[mb])
		if err != nil {
			t.Fatal(err)
		}
		if !f.Test(tok) {
			t.Fatalf("token %d missing from mailbox %d", i, mb)
		}
	}
	if !c.CDN.Published(wire.Dialing, 1) {
		t.Fatal("round not published")
	}
}

// TestNumMailboxesNoiseExceedsTarget: when per-mailbox noise alone meets or
// exceeds the target, splitting mailboxes cannot help (each split adds its
// own noise), so the coordinator must fall back to a single mailbox no
// matter the expected volume.
func TestNumMailboxesNoiseExceedsTarget(t *testing.T) {
	c := newTestCoordinator(t, 3, 0) // 3 mixers × µ=1 → 3 noise/mailbox
	c.TargetRequestsPerMailbox = 3   // noise alone hits the target
	c.SetExpectedVolume(wire.Dialing, 1000000)
	if k := c.numMailboxes(wire.Dialing); k != 1 {
		t.Fatalf("noise ≥ target: K = %d, want 1", k)
	}
	c.TargetRequestsPerMailbox = 2 // noise exceeds the target
	if k := c.numMailboxes(wire.Dialing); k != 1 {
		t.Fatalf("noise > target: K = %d, want 1", k)
	}
}

// TestNumMailboxesZeroVolume: with no expected volume (a fresh deployment,
// or a service that saw an empty round), the coordinator opens exactly one
// mailbox rather than zero.
func TestNumMailboxesZeroVolume(t *testing.T) {
	c := newTestCoordinator(t, 2, 0)
	c.TargetRequestsPerMailbox = 100
	if k := c.numMailboxes(wire.Dialing); k != 1 {
		t.Fatalf("unseeded volume: K = %d, want 1", k)
	}
	c.SetExpectedVolume(wire.Dialing, 0)
	if k := c.numMailboxes(wire.Dialing); k != 1 {
		t.Fatalf("zero volume: K = %d, want 1", k)
	}
	// Volume below one mailbox's real capacity still rounds up to 1.
	c.SetExpectedVolume(wire.Dialing, 5)
	if k := c.numMailboxes(wire.Dialing); k != 1 {
		t.Fatalf("tiny volume: K = %d, want 1", k)
	}
}

// TestVolumeTrackingAcrossRounds: each CloseRound feeds the observed batch
// size back into the mailbox-count heuristic, so consecutive rounds track
// the actual load.
func TestVolumeTrackingAcrossRounds(t *testing.T) {
	c := newTestCoordinator(t, 2, 0) // 2 mixers × µ=1 → 2 noise/mailbox
	c.TargetRequestsPerMailbox = 12  // → 10 real requests per mailbox

	s1, err := c.OpenDialingRound(1)
	if err != nil {
		t.Fatal(err)
	}
	if s1.NumMailboxes != 1 {
		t.Fatalf("round 1: K = %d, want 1 (no volume yet)", s1.NumMailboxes)
	}
	submitDialTokens(t, c, s1, makeTokens(200))
	if _, err := c.CloseRound(wire.Dialing, 1); err != nil {
		t.Fatal(err)
	}

	// Round 2 sizes from round 1's observed 200 requests: 200/10 = 20.
	s2, err := c.OpenDialingRound(2)
	if err != nil {
		t.Fatal(err)
	}
	if s2.NumMailboxes != 20 {
		t.Fatalf("round 2: K = %d, want 20", s2.NumMailboxes)
	}
	submitDialTokens(t, c, s2, makeTokens(40))
	if _, err := c.CloseRound(wire.Dialing, 2); err != nil {
		t.Fatal(err)
	}

	// Round 3 shrinks with the observed volume: 40/10 = 4.
	s3, err := c.OpenDialingRound(3)
	if err != nil {
		t.Fatal(err)
	}
	if s3.NumMailboxes != 4 {
		t.Fatalf("round 3: K = %d, want 4", s3.NumMailboxes)
	}
	// The other service's volume estimate is independent.
	if k := c.numMailboxes(wire.AddFriend); k != 1 {
		t.Fatalf("add-friend volume leaked from dialing: K = %d, want 1", k)
	}
}

// TestRelayedRoundRecordsHealth: rounds on the coordinator-relayed data
// plane still land in Status() — without per-daemon stats, which only
// exist where mix.round.wait does.
func TestRelayedRoundRecordsHealth(t *testing.T) {
	c := newTestCoordinator(t, 2, 1)
	if _, err := c.OpenDialingRound(1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CloseRound(wire.Dialing, 1); err != nil {
		t.Fatal(err)
	}
	health := c.Status()
	if len(health) != 1 {
		t.Fatalf("Status(): %d records, want 1", len(health))
	}
	h := health[0]
	if h.Forwarded || h.Service != wire.Dialing || h.Round != 1 || h.Err != "" || len(h.Daemons) != 0 {
		t.Fatalf("relayed health record: %+v", h)
	}
	if h.String() == "" {
		t.Fatal("health log line is empty")
	}
}

// TestShardedConfigRequiresCapableFleet: a coordinator configured with
// shard groups must refuse to open rounds over in-process mixers (no
// forwarding, no shard surface) instead of silently degrading — the
// shards would have divided the position's noise.
func TestShardedConfigRequiresCapableFleet(t *testing.T) {
	c := newTestCoordinator(t, 2, 1)
	nz := noise.Laplace{Mu: 1, B: 0}
	extra, err := mixnet.New(mixnet.Config{
		Name: "m", Position: 0, ChainLength: 2,
		AddFriendNoise: &nz, DialingNoise: &nz,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Shards = [][]Mixer{{extra}, nil}
	if _, err := c.OpenDialingRound(1); err == nil {
		t.Fatal("sharded round opened over a fleet that cannot forward")
	}
	c.ChainForward, c.CDNAddr = true, "127.0.0.1:1"
	if _, err := c.OpenDialingRound(2); !errors.Is(err, ErrChainForwardUnavailable) {
		t.Fatalf("sharded round over in-process mixers: err = %v, want ErrChainForwardUnavailable", err)
	}
}
