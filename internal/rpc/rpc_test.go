package rpc_test

import (
	"context"
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"testing"

	"alpenhorn/internal/bls"
	"alpenhorn/internal/cdn"
	"alpenhorn/internal/coordinator"
	"alpenhorn/internal/core"
	"alpenhorn/internal/email"
	"alpenhorn/internal/entry"
	"alpenhorn/internal/keywheel"
	"alpenhorn/internal/mixnet"
	"alpenhorn/internal/noise"
	"alpenhorn/internal/onionbox"
	"alpenhorn/internal/pkgserver"
	"alpenhorn/internal/rpc"
	"alpenhorn/internal/sim"
	"alpenhorn/internal/wire"
)

func TestBasicCall(t *testing.T) {
	s := rpc.NewServer()
	rpc.HandleFunc(s, "echo", func(arg struct {
		X int `json:"x"`
	}) (any, error) {
		return map[string]int{"x": arg.X + 1}, nil
	})
	rpc.HandleFunc(s, "fail", func(struct{}) (any, error) {
		return nil, errors.New("intentional failure")
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c := rpc.Dial(addr)
	defer c.Close()
	var out struct {
		X int `json:"x"`
	}
	if err := c.Call("echo", map[string]int{"x": 41}, &out); err != nil {
		t.Fatal(err)
	}
	if out.X != 42 {
		t.Fatalf("echo returned %d", out.X)
	}
	if err := c.Call("fail", struct{}{}, nil); err == nil || err.Error() != "intentional failure" {
		t.Fatalf("error not propagated: %v", err)
	}
	if err := c.Call("missing", struct{}{}, nil); err == nil {
		t.Fatal("unknown method did not error")
	}
}

// TestFullDeploymentOverTCP runs the complete Alpenhorn protocol — PKG
// registration, add-friend handshake, and a dialed call — with every
// client↔server interaction crossing real localhost TCP connections.
func TestFullDeploymentOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("full TCP deployment is slow")
	}
	provider := email.NewInMemoryProvider()
	nz := noise.Laplace{Mu: 1, B: 0}

	// Start 2 PKG daemons and 2 mixer daemons on ephemeral ports.
	const numPKGs, numMixers = 2, 2
	var pkgClients []*rpc.PKGClient
	var pkgServers []*pkgserver.Server
	var pkgKeys []ed25519.PublicKey
	var pkgBLS []*bls.PublicKey
	for i := 0; i < numPKGs; i++ {
		pkg, err := pkgserver.New(pkgserver.Config{Name: "pkg", Provider: provider})
		if err != nil {
			t.Fatal(err)
		}
		srv := rpc.NewServer()
		rpc.RegisterPKG(srv, pkg)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		pkgClients = append(pkgClients, rpc.DialPKG(addr))
		pkgServers = append(pkgServers, pkg)
		pkgKeys = append(pkgKeys, pkg.SigningKey())
		pkgBLS = append(pkgBLS, pkg.BLSKey())
	}

	var mixerClients []*rpc.MixerClient
	var mixerKeys []ed25519.PublicKey
	for i := 0; i < numMixers; i++ {
		m, err := mixnet.New(mixnet.Config{
			Name: "mix", Position: i, ChainLength: numMixers,
			AddFriendNoise: &nz, DialingNoise: &nz,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := rpc.NewServer()
		rpc.RegisterMixer(srv, m)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		mc, err := rpc.DialMixer(addr)
		if err != nil {
			t.Fatal(err)
		}
		mixerClients = append(mixerClients, mc)
		mixerKeys = append(mixerKeys, m.SigningKey())
	}

	// Frontend daemon: entry + CDN + coordinator over the RPC backends.
	e := entry.New()
	store := cdn.NewStore(0)
	coord := &coordinator.Coordinator{
		Entry: e, CDN: store,
		TargetRequestsPerMailbox: 24000,
	}
	for _, mc := range mixerClients {
		coord.Mixers = append(coord.Mixers, mc)
	}
	for _, pc := range pkgClients {
		coord.PKGs = append(coord.PKGs, pc)
	}
	feSrv := rpc.NewServer()
	rpc.RegisterFrontend(feSrv, e, store, rpc.Directory{NumMixers: numMixers})
	feAddr, err := feSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer feSrv.Close()
	frontend := rpc.DialFrontend(feAddr)

	// Two clients, each talking to the daemons only via RPC.
	newTCPClient := func(addr string, h core.Handler) *core.Client {
		cfg := core.Config{
			Email:      addr,
			Entry:      frontend,
			Mailboxes:  frontend,
			MixerKeys:  mixerKeys,
			PKGKeys:    pkgKeys,
			PKGBLSKeys: pkgBLS,
			NumIntents: 3,
			Handler:    h,
		}
		for _, pc := range pkgClients {
			cfg.PKGs = append(cfg.PKGs, pc)
		}
		c, err := core.NewClient(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Register(context.Background()); err != nil {
			t.Fatal(err)
		}
		// Confirm with the emailed tokens (token i is from PKG i).
		inbox := provider.Inbox(addr)
		if len(inbox) < numPKGs {
			t.Fatalf("only %d confirmation mails", len(inbox))
		}
		start := len(inbox) - numPKGs
		for i := 0; i < numPKGs; i++ {
			if err := c.ConfirmRegistration(context.Background(), i, inbox[start+i].Body); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}

	ha := &sim.Handler{AcceptAll: true}
	hb := &sim.Handler{AcceptAll: true}
	alice := newTCPClient("alice@tcp.example", ha)
	bob := newTCPClient("bob@tcp.example", hb)
	clients := []*core.Client{alice, bob}

	runAddFriendRound := func(round uint32) {
		if _, err := coord.OpenAddFriendRound(round); err != nil {
			t.Fatal(err)
		}
		for _, c := range clients {
			if err := c.SubmitAddFriendRound(context.Background(), round); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := coord.CloseRound(wire.AddFriend, round); err != nil {
			t.Fatal(err)
		}
		for _, c := range clients {
			if err := c.ScanAddFriendRound(context.Background(), round); err != nil {
				t.Fatal(err)
			}
		}
		coord.FinishAddFriendRound(round)
	}
	runDialRound := func(round uint32) {
		if _, err := coord.OpenDialingRound(round); err != nil {
			t.Fatal(err)
		}
		for _, c := range clients {
			if err := c.SubmitDialRound(context.Background(), round); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := coord.CloseRound(wire.Dialing, round); err != nil {
			t.Fatal(err)
		}
		for _, c := range clients {
			if err := c.ScanDialRound(context.Background(), round); err != nil {
				t.Fatal(err)
			}
		}
	}

	if err := alice.AddFriend(bob.Email(), nil); err != nil {
		t.Fatal(err)
	}
	runAddFriendRound(1)
	runAddFriendRound(2)
	if !alice.IsFriend(bob.Email()) || !bob.IsFriend(alice.Email()) {
		t.Fatal("friendship did not complete over TCP")
	}

	if err := alice.Call(bob.Email(), 1); err != nil {
		t.Fatal(err)
	}
	for r := uint32(1); r <= 6; r++ {
		runDialRound(r)
		if len(hb.IncomingCalls()) > 0 {
			break
		}
	}
	in := hb.IncomingCalls()
	out := ha.OutgoingCalls()
	if len(in) != 1 || len(out) != 1 || in[0].SessionKey != out[0].SessionKey {
		t.Fatal("call did not complete over TCP")
	}

	// Forward secrecy across the wire: PKG round keys are gone.
	for _, p := range pkgServers {
		if p.RoundOpen(1) || p.RoundOpen(2) {
			t.Fatal("PKG round keys survive over TCP deployment")
		}
	}
}

// TestMixerStreamingOverTCP drives the chunked streaming surface of a
// mixer daemon across a real TCP connection: begin intake, push chunks,
// then collect the shuffled output — and checks it matches what a
// full-batch Mix would have produced.
func TestMixerStreamingOverTCP(t *testing.T) {
	nz := noise.Laplace{Mu: 0, B: 0}
	m, err := mixnet.New(mixnet.Config{
		Name: "m0", Position: 0, ChainLength: 1,
		AddFriendNoise: &nz, DialingNoise: &nz,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer()
	rpc.RegisterMixer(srv, m)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client, err := rpc.DialMixer(addr)
	if err != nil {
		t.Fatal(err)
	}
	// The client must satisfy the coordinator's mixer interfaces.
	var _ coordinator.Mixer = client
	var _ coordinator.ForwardMixer = client

	rk, err := client.NewRound(wire.Dialing, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.SetDownstreamKeys(wire.Dialing, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := client.PrepareNoise(wire.Dialing, 1, 1); err != nil {
		t.Fatal(err)
	}
	pk, err := onionbox.UnmarshalPublicKey(rk.OnionKey)
	if err != nil {
		t.Fatal(err)
	}

	const n = 50
	batch := make([][]byte, n)
	want := make(map[string]bool, n)
	for i := range batch {
		tok := make([]byte, keywheel.TokenSize)
		tok[0] = byte(i)
		payload := (&wire.MixPayload{Mailbox: 0, Body: tok}).Marshal()
		onion, err := onionbox.WrapOnion(rand.Reader, []*onionbox.PublicKey{pk}, payload)
		if err != nil {
			t.Fatal(err)
		}
		batch[i] = onion
		want[string(payload)] = true
	}

	if err := client.StreamBegin(wire.Dialing, 1, 1); err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < n; lo += 7 {
		hi := lo + 7
		if hi > n {
			hi = n
		}
		if err := client.StreamChunk(wire.Dialing, 1, batch[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	out, err := client.StreamEnd(wire.Dialing, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n {
		t.Fatalf("stream returned %d messages, want %d", len(out), n)
	}
	for _, msg := range out {
		if !want[string(msg)] {
			t.Fatal("streamed output contains unexpected message")
		}
		delete(want, string(msg))
	}
	if len(want) != 0 {
		t.Fatalf("%d messages missing from streamed output", len(want))
	}

	// Stream errors cross the wire too.
	if _, err := client.StreamEnd(wire.Dialing, 1); err == nil {
		t.Fatal("StreamEnd without a stream succeeded over RPC")
	}

	// Output retrieval is chunked: drive mix.stream.pull directly with a
	// tiny Max and check the outbox hands the batch over piecewise, then
	// clears itself after the last chunk.
	if err := client.StreamBegin(wire.Dialing, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := client.StreamChunk(wire.Dialing, 1, batch); err != nil {
		t.Fatal(err)
	}
	raw := rpc.Dial(addr)
	defer raw.Close()
	var reply struct {
		Total int `json:"total"`
	}
	if err := raw.Call("mix.stream.end", map[string]any{"service": wire.Dialing, "round": 1}, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Total != n {
		t.Fatalf("stream.end total = %d, want %d", reply.Total, n)
	}
	got := 0
	pulls := 0
	for got < reply.Total {
		var chunk [][]byte
		err := raw.Call("mix.stream.pull", map[string]any{
			"service": wire.Dialing, "round": 1, "offset": got, "max": 7,
		}, &chunk)
		if err != nil {
			t.Fatal(err)
		}
		if len(chunk) == 0 || len(chunk) > 7 {
			t.Fatalf("pull returned %d messages", len(chunk))
		}
		got += len(chunk)
		pulls++
	}
	if pulls != (n+6)/7 {
		t.Fatalf("%d pulls, want %d", pulls, (n+6)/7)
	}
	if err := raw.Call("mix.stream.pull", map[string]any{
		"service": wire.Dialing, "round": 1, "offset": 0, "max": 7,
	}, nil); err == nil {
		t.Fatal("pull after final chunk succeeded (outbox not cleared)")
	}

	// StreamAbort crosses the wire and discards an in-flight stream.
	if err := client.StreamBegin(wire.Dialing, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := client.StreamAbort(wire.Dialing, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := client.StreamEnd(wire.Dialing, 1); err == nil {
		t.Fatal("StreamEnd succeeded after abort over RPC")
	}
}
