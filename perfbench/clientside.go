package main

import (
	"context"
	"crypto/ed25519"
	"fmt"
	"sync"

	"alpenhorn/internal/bloom"
	"alpenhorn/internal/core"
	"alpenhorn/internal/pkgserver"
	"alpenhorn/internal/wire"
)

// The wrappers in this file sit between a core.Client and its real
// rpc connections. They record the client-side spans and apply the
// benchmark's fetched-mailbox check and injected faults. Only the three
// client interfaces are wrapped: the coordinator type-asserts its mixer
// and PKG clients to pick the data plane and the pairing tier, so a
// wrapper there would change what runs.

// faultKind names a harness-injected fault; tests use it to prove that
// failures reach the failure count.
type faultKind int

const (
	noFault faultKind = iota
	// faultDrop drops one client's onion on its way to the entry server.
	faultDrop
	// faultCorrupt truncates one client's fetched mailbox.
	faultCorrupt
)

type fault struct {
	kind    faultKind
	service wire.Service
	round   uint32
	client  int
}

type tracedPKG struct {
	inner core.PKG
	h     *harness
}

func (p tracedPKG) Register(ctx context.Context, email string, key ed25519.PublicKey) error {
	return p.inner.Register(ctx, email, key)
}

func (p tracedPKG) ConfirmRegistration(ctx context.Context, email, token string) error {
	return p.inner.ConfirmRegistration(ctx, email, token)
}

func (p tracedPKG) Extract(ctx context.Context, email string, round uint32, sig []byte) (*pkgserver.ExtractReply, error) {
	_, end := p.h.tr.start(ctx, "pkg.extract")
	defer end()
	return p.inner.Extract(ctx, email, round, sig)
}

func (p tracedPKG) Deregister(ctx context.Context, email string, sig []byte) error {
	return p.inner.Deregister(ctx, email, sig)
}

type tracedEntry struct {
	inner  core.EntryServer
	h      *harness
	client int
}

func (e tracedEntry) Settings(ctx context.Context, service wire.Service, round uint32) (*wire.RoundSettings, error) {
	_, end := e.h.tr.start(ctx, "entry.settings")
	defer end()
	return e.inner.Settings(ctx, service, round)
}

func (e tracedEntry) Submit(ctx context.Context, service wire.Service, round uint32, onion []byte) error {
	_, end := e.h.tr.start(ctx, "entry.submit")
	defer end()
	if e.h.fault.kind == faultDrop && e.h.fault.matches(service, round, e.client) {
		return nil // lost on the way: the client believes it was sent
	}
	return e.inner.Submit(ctx, service, round, onion)
}

func (f fault) matches(service wire.Service, round uint32, client int) bool {
	return f.service == service && f.round == round && f.client == client
}

type tracedMailboxes struct {
	inner  core.MailboxStore
	h      *harness
	client int
}

func (m tracedMailboxes) Fetch(ctx context.Context, service wire.Service, round uint32, mailbox uint32) ([]byte, error) {
	_, end := m.h.tr.start(ctx, "cdn.fetch")
	data, err := m.inner.Fetch(ctx, service, round, mailbox)
	end()
	if err != nil {
		return nil, err
	}
	if m.h.fault.kind == faultCorrupt && m.h.fault.matches(service, round, m.client) && len(data) > 0 {
		data = data[:len(data)-1]
	}
	m.h.checkFetched(service, round, mailbox, data)
	return data, nil
}

func (m tracedMailboxes) FetchRange(ctx context.Context, service wire.Service, fromRound, toRound uint32, mailbox uint32) (map[uint32][]byte, error) {
	return m.inner.FetchRange(ctx, service, fromRound, toRound, mailbox)
}

// mailboxEntries counts the requests a mailbox holds: fixed-size
// ciphertexts for add-friend, the Bloom filter's insert count for
// dialing.
func mailboxEntries(service wire.Service, data []byte) (int, error) {
	if service == wire.AddFriend {
		if len(data)%wire.EncryptedFriendRequestSize != 0 {
			return 0, fmt.Errorf("add-friend mailbox of %d bytes is not whole requests", len(data))
		}
		return len(data) / wire.EncryptedFriendRequestSize, nil
	}
	f, err := bloom.Unmarshal(data)
	if err != nil {
		return 0, err
	}
	return int(f.Entries()), nil
}

// callKey identifies one call from the caller's side.
type callKey struct {
	peer   string
	round  uint32
	intent uint32
}

// handler records what one client's protocol engine reports. Friendship
// confirmations are checked on the clients themselves (IsFriend).
type handler struct {
	mu       sync.Mutex
	incoming map[callKey]core.Call
	outgoing map[callKey]core.Call
	errs     []error
}

func newHandler() *handler {
	return &handler{incoming: make(map[callKey]core.Call), outgoing: make(map[callKey]core.Call)}
}

func (h *handler) NewFriend(string, ed25519.PublicKey) bool { return true }

func (h *handler) ConfirmedFriend(string) {}

func (h *handler) IncomingCall(c core.Call) {
	h.mu.Lock()
	h.incoming[callKey{c.Friend, c.Round, c.Intent}] = c
	h.mu.Unlock()
}

func (h *handler) OutgoingCall(c core.Call) {
	h.mu.Lock()
	h.outgoing[callKey{c.Friend, c.Round, c.Intent}] = c
	h.mu.Unlock()
}

func (h *handler) Error(err error) {
	h.mu.Lock()
	h.errs = append(h.errs, err)
	h.mu.Unlock()
}

// takeErrors returns and clears the asynchronous errors reported so far.
func (h *handler) takeErrors() []error {
	h.mu.Lock()
	defer h.mu.Unlock()
	errs := h.errs
	h.errs = nil
	return errs
}

// call looks up and forgets a recorded call.
func (h *handler) call(in bool, k callKey) (core.Call, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	m := h.outgoing
	if in {
		m = h.incoming
	}
	c, ok := m[k]
	delete(m, k)
	return c, ok
}
