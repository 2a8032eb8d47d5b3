package rpc

import (
	"context"
	"errors"
	"sync"

	"alpenhorn/internal/entry"
	"alpenhorn/internal/wire"
)

// FrontendPool is a failover client over a deployment's entry frontends.
// It satisfies the same core interfaces as FrontendClient but pins no
// single frontend: calls go to the current member, and a TRANSPORT
// failure (errors.Is ErrTransport — never a handler error, never the
// caller's own cancellation) rotates the pool to the next address.
//
// Failover is seamless because the frontends replicate one announcement
// log under one cursor namespace (entry.replicate): after a rotation the
// client's round loop re-parks WatchRounds on the survivor with the SAME
// cursor it held on the dead frontend and resumes mid-round — no snapshot
// reset, no re-submit. Read-only calls retry once on the new member;
// Submit does not (an ambiguous submission must surface, not silently run
// again elsewhere), matching the at-most-once discipline of the mix
// stream surface.
type FrontendPool struct {
	clients []*FrontendClient
	mu      sync.Mutex
	cur     int
}

// DialFrontendPool creates a pool over the given frontend addresses,
// starting on the first.
func DialFrontendPool(addrs ...string) *FrontendPool {
	if len(addrs) == 0 {
		panic("rpc: DialFrontendPool needs at least one address")
	}
	p := &FrontendPool{}
	for _, a := range addrs {
		p.clients = append(p.clients, DialFrontend(a))
	}
	return p
}

// current returns the member new calls should use and its index (the
// rotation token for reportDown).
func (p *FrontendPool) current() (*FrontendClient, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.clients[p.cur], p.cur
}

// Addr returns the dial address of the pool's current member.
func (p *FrontendPool) Addr() string {
	f, _ := p.current()
	return f.addr
}

// reportDown rotates away from member idx. The index check makes the
// rotation idempotent under concurrent failures: ten calls failing on the
// same dead frontend advance the pool once, not ten times.
func (p *FrontendPool) reportDown(idx int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cur == idx && len(p.clients) > 1 {
		p.cur = (p.cur + 1) % len(p.clients)
	}
}

// rotateOn reports whether err should fail the current member over.
// Handler errors mean the frontend is alive and answered; context errors
// mean the CALLER gave up — neither says anything about frontend health.
func rotateOn(ctx context.Context, err error) bool {
	return errors.Is(err, ErrTransport) && ctx.Err() == nil
}

// Directory implements the directory fetch with failover. The directory
// describes the deployment, not one frontend, so any member's copy serves.
func (p *FrontendPool) Directory(ctx context.Context) (*Directory, error) {
	for attempt := 0; ; attempt++ {
		f, idx := p.current()
		dir, err := f.Directory(ctx)
		if rotateOn(ctx, err) {
			p.reportDown(idx)
			if attempt == 0 && len(p.clients) > 1 {
				continue
			}
		}
		return dir, err
	}
}

// WatchRounds implements core.RoundWatcher. A transport failure rotates
// the pool and surfaces the error: core's round feed already owns the
// reconnect loop (backoff, cursor preservation), so the next park lands
// on the survivor and resumes from the replicated log at the same cursor.
func (p *FrontendPool) WatchRounds(ctx context.Context, cursor uint64) ([]entry.Announcement, uint64, error) {
	f, idx := p.current()
	anns, next, err := f.WatchRounds(ctx, cursor)
	if rotateOn(ctx, err) {
		p.reportDown(idx)
	}
	return anns, next, err
}

// Settings implements core.EntryServer with failover: settings are
// verified against pinned keys client-side, so any replica's copy serves.
func (p *FrontendPool) Settings(ctx context.Context, service wire.Service, round uint32) (*wire.RoundSettings, error) {
	for attempt := 0; ; attempt++ {
		f, idx := p.current()
		rs, err := f.Settings(ctx, service, round)
		if rotateOn(ctx, err) {
			p.reportDown(idx)
			if attempt == 0 && len(p.clients) > 1 {
				continue
			}
		}
		return rs, err
	}
}

// Submit implements core.EntryServer. A transport failure rotates the
// pool but is NOT retried on the new member: the onion may already sit in
// the dead frontend's batch, and submitting it again through a survivor
// could put it in the round twice. The caller sees the error and the next
// round's submission goes to the new member.
func (p *FrontendPool) Submit(ctx context.Context, service wire.Service, round uint32, onion []byte) error {
	f, idx := p.current()
	err := f.Submit(ctx, service, round, onion)
	if rotateOn(ctx, err) {
		p.reportDown(idx)
	}
	return err
}

// Fetch implements core.MailboxStore with failover.
func (p *FrontendPool) Fetch(ctx context.Context, service wire.Service, round uint32, mailbox uint32) ([]byte, error) {
	for attempt := 0; ; attempt++ {
		f, idx := p.current()
		box, err := f.Fetch(ctx, service, round, mailbox)
		if rotateOn(ctx, err) {
			p.reportDown(idx)
			if attempt == 0 && len(p.clients) > 1 {
				continue
			}
		}
		return box, err
	}
}

// FetchRange implements core.MailboxStore with failover.
func (p *FrontendPool) FetchRange(ctx context.Context, service wire.Service, fromRound, toRound uint32, mailbox uint32) (map[uint32][]byte, error) {
	for attempt := 0; ; attempt++ {
		f, idx := p.current()
		boxes, err := f.FetchRange(ctx, service, fromRound, toRound, mailbox)
		if rotateOn(ctx, err) {
			p.reportDown(idx)
			if attempt == 0 && len(p.clients) > 1 {
				continue
			}
		}
		return boxes, err
	}
}

// CallCount sums a method's call count across every member.
func (p *FrontendPool) CallCount(method string) uint64 {
	var n uint64
	for _, f := range p.clients {
		n += f.CallCount(method)
	}
	return n
}

// TransportStats sums transport accounting across every member.
func (p *FrontendPool) TransportStats() ClientStats {
	var st ClientStats
	for _, f := range p.clients {
		fs := f.TransportStats()
		st.BytesSent += fs.BytesSent
		st.BytesReceived += fs.BytesReceived
		st.Calls += fs.Calls
	}
	return st
}

// Close closes every member's connections.
func (p *FrontendPool) Close() {
	for _, f := range p.clients {
		f.Close()
	}
}
