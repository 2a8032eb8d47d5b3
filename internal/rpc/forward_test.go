package rpc_test

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	mathrand "math/rand"
	"sync/atomic"
	"testing"

	"alpenhorn/internal/bloom"
	"alpenhorn/internal/cdn"
	"alpenhorn/internal/coordinator"
	"alpenhorn/internal/entry"
	"alpenhorn/internal/keywheel"
	"alpenhorn/internal/mixnet"
	"alpenhorn/internal/noise"
	"alpenhorn/internal/onionbox"
	"alpenhorn/internal/rpc"
	"alpenhorn/internal/wire"
)

// mixerFleet is a chain of mixer daemons listening on localhost TCP, plus
// the coordinator-side clients for them.
type mixerFleet struct {
	servers []*mixnet.Server
	daemons []*rpc.MixerDaemon
	rpcSrvs []*rpc.Server
	addrs   []string
	clients []*rpc.MixerClient
}

// startFleet launches n mixer daemons over TCP. rand may be nil
// (crypto/rand) or a per-position deterministic source factory.
func startFleet(t *testing.T, n int, nz noise.Laplace, randFor func(pos int) mathrand.Source) *mixerFleet {
	t.Helper()
	f := &mixerFleet{}
	for i := 0; i < n; i++ {
		cfg := mixnet.Config{
			Name: "m", Position: i, ChainLength: n,
			AddFriendNoise: &nz, DialingNoise: &nz,
		}
		if randFor != nil {
			cfg.Rand = &seededReader{rng: mathrand.New(randFor(i))}
			cfg.Parallelism = 1 // deterministic rand read order
		}
		m, err := mixnet.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv := rpc.NewServer()
		d := rpc.RegisterMixer(srv, m)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		mc, err := rpc.DialMixer(addr)
		if err != nil {
			t.Fatal(err)
		}
		f.servers = append(f.servers, m)
		f.daemons = append(f.daemons, d)
		f.rpcSrvs = append(f.rpcSrvs, srv)
		f.addrs = append(f.addrs, addr)
		f.clients = append(f.clients, mc)
	}
	return f
}

// seededReader is a deterministic, non-thread-safe randomness source (the
// mixnet server wraps it in its serializing reader).
type seededReader struct{ rng *mathrand.Rand }

func (r *seededReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(r.rng.Intn(256))
	}
	return len(p), nil
}

// startCDN serves cdn.publish + a store on localhost TCP.
func startCDN(t *testing.T) (*cdn.Store, string) {
	t.Helper()
	store, addr, _ := startCDNDaemon(t)
	return store, addr
}

// startCDNDaemon is startCDN exposing the daemon for seal/staging stats.
func startCDNDaemon(t *testing.T) (*cdn.Store, string, *rpc.CDNDaemon) {
	t.Helper()
	store := cdn.NewStore(0)
	srv := rpc.NewServer()
	d := rpc.RegisterCDN(srv, store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return store, addr, d
}

// forwardCoordinator assembles a chain-forward coordinator over a fleet.
func forwardCoordinator(f *mixerFleet, e *entry.Server, store *cdn.Store, cdnAddr string) *coordinator.Coordinator {
	coord := &coordinator.Coordinator{
		Entry: e, CDN: store,
		TargetRequestsPerMailbox: 40,
		ChainForward:             true,
		CDNAddr:                  cdnAddr,
	}
	for _, mc := range f.clients {
		coord.Mixers = append(coord.Mixers, mc)
	}
	return coord
}

// submitTokens wraps one dial onion per token (round-robin mailboxes,
// using rnd for the onion encryption) and submits them.
func submitTokens(t *testing.T, e *entry.Server, settings *wire.RoundSettings, tokens [][]byte, rnd *mathrand.Rand) int {
	t.Helper()
	hops := make([]*onionbox.PublicKey, len(settings.Mixers))
	for i, rk := range settings.Mixers {
		pk, err := onionbox.UnmarshalPublicKey(rk.OnionKey)
		if err != nil {
			t.Fatal(err)
		}
		hops[i] = pk
	}
	var src = rand.Reader
	if rnd != nil {
		src = &seededReader{rng: rnd}
	}
	total := 0
	for i, tok := range tokens {
		payload := (&wire.MixPayload{Mailbox: uint32(i) % settings.NumMailboxes, Body: tok}).Marshal()
		onion, err := onionbox.WrapOnion(src, hops, payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Submit(settings.Service, settings.Round, onion); err != nil {
			t.Fatal(err)
		}
		total += len(onion)
	}
	return total
}

func makeTestTokens(n int) [][]byte {
	tokens := make([][]byte, n)
	for i := range tokens {
		tok := make([]byte, keywheel.TokenSize)
		tok[0], tok[1], tok[2] = byte(i), byte(i>>8), 0xEF
		tokens[i] = tok
	}
	return tokens
}

func assertTokensDelivered(t *testing.T, store *cdn.Store, round uint32, settings *wire.RoundSettings, tokens [][]byte) {
	t.Helper()
	for i, tok := range tokens {
		mb := uint32(i) % settings.NumMailboxes
		box, err := store.Fetch(wire.Dialing, round, mb)
		if err != nil {
			t.Fatal(err)
		}
		f, err := bloom.Unmarshal(box)
		if err != nil {
			t.Fatal(err)
		}
		if !f.Test(tok) {
			t.Fatalf("token %d missing from mailbox %d", i, mb)
		}
	}
}

// TestChainForwardOverTCP is the acceptance test for the control-plane /
// data-plane split: a round over real TCP daemons completes with the
// coordinator exchanging only control messages — the batch reaches the
// first mixer once, nothing is relayed downstream or pulled back, and the
// mailboxes appear in the CDN via the last daemon's cdn.publish. The
// transport byte-counters on the coordinator's connections are the proof.
func TestChainForwardOverTCP(t *testing.T) {
	nz := noise.Laplace{Mu: 2, B: 0}
	f := startFleet(t, 3, nz, nil)
	store, cdnAddr := startCDN(t)
	e := entry.New()
	coord := forwardCoordinator(f, e, store, cdnAddr)
	coord.ChunkSize = 64
	coord.SetExpectedVolume(wire.Dialing, 300)

	settings, err := coord.OpenDialingRound(1)
	if err != nil {
		t.Fatal(err)
	}
	if settings.NumMailboxes < 2 {
		t.Fatalf("want a multi-mailbox round, got K=%d", settings.NumMailboxes)
	}
	tokens := makeTestTokens(300)
	batchBytes := submitTokens(t, e, settings, tokens, nil)

	mailboxes, err := coord.CloseRound(wire.Dialing, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mailboxes != nil {
		t.Fatal("chain-forward CloseRound returned mailboxes through the coordinator")
	}
	if !store.Published(wire.Dialing, 1) {
		t.Fatal("last daemon did not publish to the CDN")
	}
	assertTokensDelivered(t, store, 1, settings, tokens)

	// The coordinator moved control messages only: no output pulls, and
	// no batch chunks to anyone but the first mixer.
	for i, mc := range f.clients {
		if n := mc.CallCount("mix.stream.pull"); n != 0 {
			t.Errorf("mixer %d: %d mix.stream.pull calls on the happy path", i, n)
		}
		if i > 0 {
			if n := mc.CallCount("mix.stream.chunk"); n != 0 {
				t.Errorf("mixer %d: coordinator pushed %d batch chunks to a non-first mixer", i, n)
			}
		}
	}
	// Byte accounting: the entry batch flows to mixer 0 once; every other
	// coordinator connection carries a few KB of keys and control calls.
	const controlBudget = 32 << 10
	st0 := f.clients[0].TransportStats()
	if st0.BytesSent < uint64(batchBytes) {
		t.Errorf("mixer 0: coordinator sent %d bytes, want >= batch (%d)", st0.BytesSent, batchBytes)
	}
	for i, mc := range f.clients {
		st := mc.TransportStats()
		if st.BytesReceived > controlBudget {
			t.Errorf("mixer %d: coordinator received %d bytes, want control-only (< %d)", i, st.BytesReceived, controlBudget)
		}
		if i > 0 && st.BytesSent > controlBudget {
			t.Errorf("mixer %d: coordinator sent %d bytes, want control-only (< %d)", i, st.BytesSent, controlBudget)
		}
	}
	// No leaked round state on the daemons.
	for i, d := range f.daemons {
		if n := d.PendingRoutes(); n != 0 {
			t.Errorf("daemon %d: %d routes leak after the round", i, n)
		}
		if n := d.PendingOutboxes(); n != 0 {
			t.Errorf("daemon %d: %d outboxes leak after the round", i, n)
		}
		if f.servers[i].RoundOpen(wire.Dialing, 1) {
			t.Errorf("daemon %d: round key survives close", i)
		}
	}
}

// TestChainForwardAbortMidChain kills the middle daemon while the batch is
// streaming through it and checks the failure is clean: StreamAbort
// propagates (down the chain and back to the coordinator), the round
// fails without publishing, no round state leaks on the survivors, and —
// after the daemon comes back — the next round succeeds.
func TestChainForwardAbortMidChain(t *testing.T) {
	nz := noise.Laplace{Mu: 2, B: 0}
	f := startFleet(t, 3, nz, nil)
	store, cdnAddr := startCDN(t)
	e := entry.New()
	coord := forwardCoordinator(f, e, store, cdnAddr)
	coord.ChunkSize = 8 // many chunks per hop, so the kill lands mid-stream
	coord.SetExpectedVolume(wire.Dialing, 120)

	// Sabotage the middle daemon: after two forwarded chunks arrive, it
	// starts failing and its server goes down — a crash mid-stream.
	var chunks atomic.Int32
	rpc.HandleFunc(f.rpcSrvs[1], "mix.stream.chunk", func(a struct {
		Service wire.Service `json:"service"`
		Round   uint32       `json:"round"`
		Batch   [][]byte     `json:"batch"`
	}) (any, error) {
		if chunks.Add(1) > 2 {
			go f.rpcSrvs[1].Close()
			return nil, errors.New("mixer 1 crashed mid-stream")
		}
		return nil, f.servers[1].StreamChunk(a.Service, a.Round, a.Batch)
	})

	settings, err := coord.OpenDialingRound(1)
	if err != nil {
		t.Fatal(err)
	}
	tokens := makeTestTokens(120)
	submitTokens(t, e, settings, tokens, nil)

	if _, err := coord.CloseRound(wire.Dialing, 1); err == nil {
		t.Fatal("round with a dead mid-chain daemon succeeded")
	}
	if chunks.Load() < 3 {
		t.Fatalf("daemon died after %d chunks; the kill was not mid-stream", chunks.Load())
	}
	if store.Published(wire.Dialing, 1) {
		t.Fatal("aborted round was published")
	}
	for _, i := range []int{0, 2} {
		if f.servers[i].RoundOpen(wire.Dialing, 1) {
			t.Errorf("daemon %d: round key survives aborted round", i)
		}
		if n := f.daemons[i].PendingRoutes(); n != 0 {
			t.Errorf("daemon %d: %d routes leak after abort", i, n)
		}
		if n := f.daemons[i].PendingOutboxes(); n != 0 {
			t.Errorf("daemon %d: %d outboxes leak after abort", i, n)
		}
	}

	// The daemon comes back on the same address (fresh RPC server, same
	// mixer); every cached connection redials lazily.
	restarted := rpc.NewServer()
	f.daemons[1] = rpc.RegisterMixer(restarted, f.servers[1])
	if _, err := restarted.Listen(f.addrs[1]); err != nil {
		t.Fatalf("restarting daemon 1 on %s: %v", f.addrs[1], err)
	}
	t.Cleanup(restarted.Close)

	settings2, err := coord.OpenDialingRound(2)
	if err != nil {
		t.Fatal(err)
	}
	tokens2 := makeTestTokens(90)
	submitTokens(t, e, settings2, tokens2, nil)
	if _, err := coord.CloseRound(wire.Dialing, 2); err != nil {
		t.Fatalf("round after daemon restart failed: %v", err)
	}
	if !store.Published(wire.Dialing, 2) {
		t.Fatal("recovered round not published")
	}
	assertTokensDelivered(t, store, 2, settings2, tokens2)
}

// TestDataPlaneModesByteIdentical runs the same seeded round three ways —
// mixnet.Chain's full-batch reference over in-process servers, the
// coordinator-relayed pipeline, and chain-forwarded over TCP — and checks
// the published mailboxes are byte-identical: moving the data plane onto
// the servers changes WHERE bytes travel, never what comes out.
func TestDataPlaneModesByteIdentical(t *testing.T) {
	nz := noise.Laplace{Mu: 2, B: 0}
	const numTokens = 90
	tokens := makeTestTokens(numTokens)

	type result struct {
		settings  *wire.RoundSettings
		mailboxes map[uint32][]byte
	}
	runMode := func(mode string) result {
		var coord *coordinator.Coordinator
		var servers []*mixnet.Server
		var store *cdn.Store
		e := entry.New()
		if mode == "forward" {
			f := startFleet(t, 3, nz, func(pos int) mathrand.Source {
				return mathrand.NewSource(int64(1000 + pos))
			})
			var cdnAddr string
			store, cdnAddr = startCDN(t)
			coord = forwardCoordinator(f, e, store, cdnAddr)
		} else {
			for i := 0; i < 3; i++ {
				m, err := mixnet.New(mixnet.Config{
					Name: "m", Position: i, ChainLength: 3,
					AddFriendNoise: &nz, DialingNoise: &nz,
					Rand:        &seededReader{rng: mathrand.New(mathrand.NewSource(int64(1000 + i)))},
					Parallelism: 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				servers = append(servers, m)
			}
			store = cdn.NewStore(0)
			coord = coordinator.New(e, servers, nil, store)
		}
		coord.TargetRequestsPerMailbox = 40
		coord.ChunkSize = 16
		coord.SetExpectedVolume(wire.Dialing, numTokens)

		settings, err := coord.OpenDialingRound(1)
		if err != nil {
			t.Fatal(err)
		}
		submitTokens(t, e, settings, tokens, mathrand.New(mathrand.NewSource(4242)))
		if mode == "chain" {
			// The reference: the entry batch through every server's
			// full-batch Mix in turn, no pipeline, no coordinator.
			batch, err := e.CloseRound(wire.Dialing, 1)
			if err != nil {
				t.Fatal(err)
			}
			boxes, err := mixnet.Chain(servers, wire.Dialing, 1, settings.NumMailboxes, batch)
			if err != nil {
				t.Fatal(err)
			}
			return result{settings: settings, mailboxes: boxes}
		}
		if _, err := coord.CloseRound(wire.Dialing, 1); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		boxes := make(map[uint32][]byte)
		for mb := uint32(0); mb < settings.NumMailboxes; mb++ {
			data, err := store.Fetch(wire.Dialing, 1, mb)
			if err != nil {
				t.Fatalf("%s: mailbox %d: %v", mode, mb, err)
			}
			boxes[mb] = data
		}
		return result{settings: settings, mailboxes: boxes}
	}

	base := runMode("chain")
	if base.settings.NumMailboxes < 2 {
		t.Fatalf("want a multi-mailbox round, got K=%d", base.settings.NumMailboxes)
	}
	for _, mode := range []string{"relay", "forward"} {
		got := runMode(mode)
		if got.settings.NumMailboxes != base.settings.NumMailboxes {
			t.Fatalf("%s: K=%d, full-batch chain K=%d", mode, got.settings.NumMailboxes, base.settings.NumMailboxes)
		}
		for mb := uint32(0); mb < base.settings.NumMailboxes; mb++ {
			if !bytes.Equal(base.mailboxes[mb], got.mailboxes[mb]) {
				t.Errorf("%s: mailbox %d differs from the full-batch chain", mode, mb)
			}
		}
	}
}

// TestChainForwardRefusesIncapableFleetOverTCP: a chain-forward
// coordinator whose chain includes a mixer that cannot forward (an
// in-process server) must refuse to open the round with
// ErrChainForwardUnavailable instead of quietly relaying it, and so must
// one with no CDN publish address. Neither the entry server nor any
// daemon may see the round.
func TestChainForwardRefusesIncapableFleetOverTCP(t *testing.T) {
	nz := noise.Laplace{Mu: 1, B: 0}
	f := startFleet(t, 2, nz, nil)
	local, err := mixnet.New(mixnet.Config{
		Name: "local", Position: 0, ChainLength: 2,
		AddFriendNoise: &nz, DialingNoise: &nz,
	})
	if err != nil {
		t.Fatal(err)
	}
	store, cdnAddr := startCDN(t)
	for _, tc := range []struct {
		name    string
		mixers  []coordinator.Mixer
		cdnAddr string
	}{
		{"in-process mixer in the chain", []coordinator.Mixer{local, f.clients[1]}, cdnAddr},
		{"no CDN address", []coordinator.Mixer{f.clients[0], f.clients[1]}, ""},
	} {
		e := entry.New()
		coord := &coordinator.Coordinator{
			Entry: e, CDN: store,
			TargetRequestsPerMailbox: 40,
			ChainForward:             true,
			CDNAddr:                  tc.cdnAddr,
			Mixers:                   tc.mixers,
		}
		if _, err := coord.OpenDialingRound(1); !errors.Is(err, coordinator.ErrChainForwardUnavailable) {
			t.Fatalf("%s: OpenDialingRound err = %v, want ErrChainForwardUnavailable", tc.name, err)
		}
		if e.Status(wire.Dialing).CurrentOpen != 0 {
			t.Fatalf("%s: the refused round was announced", tc.name)
		}
	}
	for i, mc := range f.clients {
		if n := mc.CallCount("mix.newround"); n != 0 {
			t.Errorf("daemon %d: %d mix.newround calls for refused rounds", i, n)
		}
	}
}

// TestFrontendSubmitMapsRoundFull: the entry server's admission signal
// survives the RPC hop as a typed error clients can errors.Is on.
func TestFrontendSubmitMapsRoundFull(t *testing.T) {
	e := entry.New()
	e.MaxBatch = 1
	nz := noise.Laplace{Mu: 0, B: 0}
	m, err := mixnet.New(mixnet.Config{Name: "m", Position: 0, ChainLength: 1, AddFriendNoise: &nz, DialingNoise: &nz})
	if err != nil {
		t.Fatal(err)
	}
	store := cdn.NewStore(0)
	coord := coordinator.New(e, []*mixnet.Server{m}, nil, store)

	srv := rpc.NewServer()
	rpc.RegisterFrontend(srv, e, store, rpc.Directory{NumMixers: 1})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	frontend := rpc.DialFrontend(addr)

	settings, err := coord.OpenDialingRound(1)
	if err != nil {
		t.Fatal(err)
	}
	pk, err := onionbox.UnmarshalPublicKey(settings.Mixers[0].OnionKey)
	if err != nil {
		t.Fatal(err)
	}
	makeOnion := func(b byte) []byte {
		tok := make([]byte, keywheel.TokenSize)
		tok[0] = b
		payload := (&wire.MixPayload{Mailbox: 0, Body: tok}).Marshal()
		onion, err := onionbox.WrapOnion(rand.Reader, []*onionbox.PublicKey{pk}, payload)
		if err != nil {
			t.Fatal(err)
		}
		return onion
	}
	if err := frontend.Submit(context.Background(), wire.Dialing, 1, makeOnion(1)); err != nil {
		t.Fatal(err)
	}
	err = frontend.Submit(context.Background(), wire.Dialing, 1, makeOnion(2))
	if !errors.Is(err, entry.ErrRoundFull) {
		t.Fatalf("full round over RPC: got %v, want entry.ErrRoundFull", err)
	}
}
