package rpc

import (
	"context"
	"sync"

	"alpenhorn/internal/wire"
)

// CDNClient is the client read plane of one CDN node: cdn.fetch and
// cdn.fetchrange against the node's RegisterCDNFrontend surface. It
// mirrors FrontendClient's fetch path (same wire structs, same absent-
// round semantics) so a client can point its mailbox scans at the CDN
// tier directly instead of proxying every fetch through a frontend.
type CDNClient struct {
	addr string
	c    *Client
}

// DialCDN connects to one CDN node's read surface.
func DialCDN(addr string) *CDNClient {
	return &CDNClient{addr: addr, c: Dial(addr)}
}

// Fetch implements core.MailboxStore.
func (f *CDNClient) Fetch(ctx context.Context, service wire.Service, round uint32, mailbox uint32) ([]byte, error) {
	var out []byte
	if err := f.c.CallContext(ctx, "cdn.fetch", fetchArgs{Service: service, Round: round, Mailbox: mailbox}, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// FetchRange implements core.MailboxStore: one request for a span of
// rounds via cdn.fetchrange. Rounds the node does not hold are absent.
func (f *CDNClient) FetchRange(ctx context.Context, service wire.Service, fromRound, toRound uint32, mailbox uint32) (map[uint32][]byte, error) {
	return fetchRange(ctx, f.c, service, fromRound, toRound, mailbox)
}

// CallCount reports a method's call count on this node's connection.
func (f *CDNClient) CallCount(method string) uint64 { return f.c.CallCount(method) }

// TransportStats reports this node's connection accounting.
func (f *CDNClient) TransportStats() ClientStats { return f.c.Stats() }

// Close closes the node connection.
func (f *CDNClient) Close() { f.c.Close() }

// CDNPool is a failover client over a deployment's CDN nodes (the
// Directory.CDNAddrs set), the fetch-plane sibling of FrontendPool: every
// node holds every sealed round (publish-time replication plus restart
// backfill), so calls go to the current member and a TRANSPORT failure —
// errors.Is ErrTransport, never a handler error, never the caller's own
// cancellation — rotates to the next. Reads retry once on the new member,
// so a node dying mid-scan costs the client nothing visible. It satisfies
// core.MailboxStore.
type CDNPool struct {
	clients []*CDNClient
	mu      sync.Mutex
	cur     int
}

// DialCDNPool creates a pool over the given CDN node addresses, starting
// on the first.
func DialCDNPool(addrs ...string) *CDNPool {
	if len(addrs) == 0 {
		panic("rpc: DialCDNPool needs at least one address")
	}
	p := &CDNPool{}
	for _, a := range addrs {
		p.clients = append(p.clients, DialCDN(a))
	}
	return p
}

// current returns the member new calls should use and its index (the
// rotation token for reportDown).
func (p *CDNPool) current() (*CDNClient, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.clients[p.cur], p.cur
}

// Addr returns the dial address of the pool's current member.
func (p *CDNPool) Addr() string {
	f, _ := p.current()
	return f.addr
}

// reportDown rotates away from member idx; the index check makes the
// rotation idempotent under concurrent failures.
func (p *CDNPool) reportDown(idx int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cur == idx && len(p.clients) > 1 {
		p.cur = (p.cur + 1) % len(p.clients)
	}
}

// Fetch implements core.MailboxStore with failover.
func (p *CDNPool) Fetch(ctx context.Context, service wire.Service, round uint32, mailbox uint32) ([]byte, error) {
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
func (p *CDNPool) FetchRange(ctx context.Context, service wire.Service, fromRound, toRound uint32, mailbox uint32) (map[uint32][]byte, error) {
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
func (p *CDNPool) CallCount(method string) uint64 {
	var n uint64
	for _, f := range p.clients {
		n += f.CallCount(method)
	}
	return n
}

// TransportStats sums transport accounting across every member.
func (p *CDNPool) TransportStats() ClientStats {
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
func (p *CDNPool) Close() {
	for _, f := range p.clients {
		f.Close()
	}
}
