package rpc

import (
	"testing"
	"time"

	"alpenhorn/internal/mixnet"
	"alpenhorn/internal/noise"
	"alpenhorn/internal/wire"
)

// TestOpenRouteCarriesDeadline opens a route over TCP with a round
// deadline and checks that the daemon's route holds it: the coordinator's
// RoundDeadline reaches a remote daemon only through MixerClient.OpenRoute.
func TestOpenRouteCarriesDeadline(t *testing.T) {
	nz := noise.Laplace{}
	m, err := mixnet.New(mixnet.Config{
		Name: "m", Position: 0, ChainLength: 1,
		AddFriendNoise: &nz, DialingNoise: &nz,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer()
	d := RegisterMixer(srv, m)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mc, err := DialMixer(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mc.NewRound(wire.Dialing, 1); err != nil {
		t.Fatal(err)
	}
	const deadlineMs = 4500
	before := time.Now()
	if err := mc.OpenRoute(wire.Dialing, 1, wire.RouteSpec{
		NumMailboxes: 1, CDNAddr: "127.0.0.1:1", DeadlineMs: deadlineMs,
	}); err != nil {
		t.Fatal(err)
	}
	after := time.Now()

	d.mu.Lock()
	rt := d.routes[outKey{wire.Dialing, 1}]
	d.mu.Unlock()
	if rt == nil {
		t.Fatal("daemon installed no route")
	}
	if rt.deadlineMs != deadlineMs {
		t.Fatalf("route deadline_ms = %d, want %d", rt.deadlineMs, deadlineMs)
	}
	window := deadlineMs * time.Millisecond
	if rt.deadline.Before(before.Add(window)) || rt.deadline.After(after.Add(window)) {
		t.Fatalf("route deadline %v outside [%v, %v]", rt.deadline, before.Add(window), after.Add(window))
	}
}
