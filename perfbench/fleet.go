package main

import (
	"context"
	"crypto/ed25519"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"unsafe"

	"alpenhorn/internal/bls"
	"alpenhorn/internal/cdn"
	"alpenhorn/internal/coordinator"
	"alpenhorn/internal/core"
	"alpenhorn/internal/email"
	"alpenhorn/internal/entry"
	"alpenhorn/internal/mixnet"
	"alpenhorn/internal/noise"
	"alpenhorn/internal/pkgserver"
	"alpenhorn/internal/rpc"
	"alpenhorn/internal/wire"
)

// spec is one workload's fleet layout and traffic.
type spec struct {
	name      string
	service   wire.Service // the service the timed rounds run
	clients   int
	pkgs      int
	positions int
	shards    int // daemons per chain position
	frontends int
	cdnNodes  int
	diskCDN   bool
	afMu      float64 // add-friend noise per mailbox per position (b=0)
	dialMu    float64 // dialing noise per mailbox per position (b=0)

	// maxWorkers caps the client workers below nproc (0 = no cap).
	// Dialing client work is a keywheel hash; a second worker there
	// only makes simulated clients contend with the servers for CPUs,
	// which real clients on their own machines never do.
	maxWorkers int

	// Add-friend traffic: new friend requests per round, and how many
	// clients beyond the round's recipients scan.
	newPairs      int
	extraScanners int

	// Dialing traffic: synthetic cover onions per round and the mailbox
	// count the coordinator is sized for.
	cover     int
	mailboxes int
}

var specs = map[string]spec{
	"addfriend": {
		name: "addfriend", service: wire.AddFriend,
		clients: 64, pkgs: 3, positions: 3, shards: 1, frontends: 1, cdnNodes: 1,
		afMu: 20, dialMu: 4, newPairs: 8, extraScanners: 4,
	},
	"dialing": {
		name: "dialing", service: wire.Dialing,
		clients: 16, pkgs: 3, positions: 3, shards: 1, frontends: 1, cdnNodes: 1,
		afMu: 2, dialMu: 100, cover: 2400, mailboxes: 4, maxWorkers: 1,
	},
	"dialing-sharded": {
		name: "dialing-sharded", service: wire.Dialing,
		clients: 16, pkgs: 3, positions: 3, shards: 2, frontends: 2, cdnNodes: 2, diskCDN: true,
		afMu: 2, dialMu: 100, cover: 2400, mailboxes: 4, maxWorkers: 1,
	},
}

// layout describes the fleet in one line for the run's header.
func (s spec) layout() string {
	store := "in-memory"
	if s.diskCDN {
		store = "disk-backed, replicated"
	}
	return fmt.Sprintf("%d clients, %d PKGs, %d positions x %d shards (chain-forward), %d frontends, %d %s CDN nodes, mu af=%g dial=%g b=0, all over 127.0.0.1 TCP",
		s.clients, s.pkgs, s.positions, s.shards, s.frontends, s.cdnNodes, store, s.afMu, s.dialMu)
}

// workerConns are one client worker's connections: one per server, shared
// by every client the worker drives.
type workerConns struct {
	pkgs      []*rpc.PKGClient
	frontends []*rpc.FrontendClient
	cdnPools  []*rpc.CDNPool // one per CDN node, that node first
}

type benchClient struct {
	worker  int
	node    int // the CDN node it reads first
	email   string
	client  *core.Client
	handler *handler
	// mailboxes is the client's wrapped mailbox source, for clients
	// that fetch a round without scanning it.
	mailboxes core.MailboxStore
}

// fleet is every server of one workload plus its clients, in process and
// talking over loopback TCP.
type fleet struct {
	spec     spec
	provider *email.InMemoryProvider
	pkgs     []*pkgserver.Server
	mixers   []*mixnet.Server     // every daemon
	coordMix [][]*rpc.MixerClient // the coordinator's clients, [position][shard]
	stores   []*cdn.Store         // CDN nodes; stores[0] takes the publishes
	entries  []*entry.Server      // frontends; entries[0] is the coordinator's
	coord    *coordinator.Coordinator
	workers  []*workerConns
	clients  []*benchClient
	keys     clientKeys
	closers  []func()
}

func (f *fleet) close() {
	for i := len(f.closers) - 1; i >= 0; i-- {
		f.closers[i]()
	}
	f.closers = nil
}

func (f *fleet) serve(srv *rpc.Server) (string, error) {
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return "", err
	}
	f.closers = append(f.closers, srv.Close)
	return addr, nil
}

// startFleet starts the servers of s and dials workers x server client
// connections. dataDir holds disk-backed CDN nodes.
func startFleet(s spec, workers int, dataDir string) (*fleet, error) {
	f := &fleet{spec: s, provider: email.NewInMemoryProvider()}
	ok := false
	defer func() {
		if !ok {
			f.close()
		}
	}()

	var pkgAddrs []string
	var pkgKeys []ed25519.PublicKey
	var pkgBLS []*bls.PublicKey
	coord := &coordinator.Coordinator{
		ChainForward: true,
		PairingV2:    true,
	}
	for i := 0; i < s.pkgs; i++ {
		p, err := pkgserver.New(pkgserver.Config{Name: fmt.Sprintf("pkg%d", i), Provider: f.provider})
		if err != nil {
			return nil, err
		}
		srv := rpc.NewServer()
		rpc.RegisterPKG(srv, p)
		addr, err := f.serve(srv)
		if err != nil {
			return nil, err
		}
		f.pkgs = append(f.pkgs, p)
		pkgAddrs = append(pkgAddrs, addr)
		pkgKeys = append(pkgKeys, p.SigningKey())
		pkgBLS = append(pkgBLS, p.BLSKey())
		coord.PKGs = append(coord.PKGs, rpc.DialPKG(addr))
	}

	afNoise := noise.Laplace{Mu: s.afMu, B: 0}
	dialNoise := noise.Laplace{Mu: s.dialMu, B: 0}
	var mixerKeys []ed25519.PublicKey
	for pos := 0; pos < s.positions; pos++ {
		var group []*rpc.MixerClient
		for sh := 0; sh < s.shards; sh++ {
			cfg := mixnet.Config{
				Name: fmt.Sprintf("mix%d.%d", pos, sh), Position: pos, ChainLength: s.positions,
				AddFriendNoise: &afNoise, DialingNoise: &dialNoise,
			}
			if s.shards > 1 {
				cfg.ShardIndex, cfg.ShardCount = sh, s.shards
			}
			m, err := mixnet.New(cfg)
			if err != nil {
				return nil, err
			}
			srv := rpc.NewServer()
			rpc.RegisterMixer(srv, m)
			addr, err := f.serve(srv)
			if err != nil {
				return nil, err
			}
			mc, err := rpc.DialMixer(addr)
			if err != nil {
				return nil, err
			}
			f.mixers = append(f.mixers, m)
			group = append(group, mc)
			if sh == 0 {
				mixerKeys = append(mixerKeys, m.SigningKey())
			}
		}
		f.coordMix = append(f.coordMix, group)
		coord.Mixers = append(coord.Mixers, group[0])
		var extra []coordinator.Mixer
		for _, mc := range group[1:] {
			extra = append(extra, mc)
		}
		coord.Shards = append(coord.Shards, extra)
	}

	var ingestAddrs, readAddrs []string
	var daemons []*rpc.CDNDaemon
	for i := 0; i < s.cdnNodes; i++ {
		store := cdn.NewStore(0)
		if s.diskCDN {
			var err error
			if store, err = cdn.OpenDiskStore(filepath.Join(dataDir, fmt.Sprintf("cdn%d", i)), 0); err != nil {
				return nil, err
			}
		}
		f.closers = append(f.closers, func() { store.Close() })
		ingest := rpc.NewServer()
		daemon := rpc.RegisterCDN(ingest, store)
		f.closers = append(f.closers, daemon.Close)
		ingestAddr, err := f.serve(ingest)
		if err != nil {
			return nil, err
		}
		read := rpc.NewServer()
		rpc.RegisterCDNFrontend(read, store)
		readAddr, err := f.serve(read)
		if err != nil {
			return nil, err
		}
		f.stores = append(f.stores, store)
		daemons = append(daemons, daemon)
		ingestAddrs = append(ingestAddrs, ingestAddr)
		readAddrs = append(readAddrs, readAddr)
	}
	for i, d := range daemons {
		var peers []string
		for j, a := range ingestAddrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		if len(peers) > 0 {
			d.SetPeers(peers...)
		}
	}

	dir := rpc.Directory{PKGAddrs: pkgAddrs, NumMixers: s.positions}
	var feAddrs []string
	for i := 0; i < s.frontends; i++ {
		e := entry.New()
		srv := rpc.NewServer()
		rpc.RegisterFrontend(srv, e, f.stores[0], dir)
		addr, err := f.serve(srv)
		if err != nil {
			return nil, err
		}
		f.entries = append(f.entries, e)
		feAddrs = append(feAddrs, addr)
		if i == 0 {
			continue
		}
		rep := rpc.NewServer()
		rpc.RegisterEntryReplica(rep, e)
		repAddr, err := f.serve(rep)
		if err != nil {
			return nil, err
		}
		rc := rpc.DialEntryReplica(repAddr)
		f.closers = append(f.closers, rc.Close)
		coord.Frontends = append(coord.Frontends, rc)
	}
	coord.Entry = f.entries[0]
	coord.CDN = f.stores[0]
	coord.CDNAddr = ingestAddrs[0]
	coord.TargetRequestsPerMailbox = 24000
	if s.service == wire.Dialing {
		// Size the dialing rounds for exactly s.mailboxes mailboxes:
		// numMailboxes = volume / (target - noise) with the volume
		// pinned before every round.
		volume := s.cover + s.clients
		coord.TargetRequestsPerMailbox = int(float64(s.positions)*s.dialMu) + volume/s.mailboxes - 1
	}
	f.coord = coord

	for w := 0; w < workers; w++ {
		wc := &workerConns{}
		for _, a := range pkgAddrs {
			wc.pkgs = append(wc.pkgs, rpc.DialPKG(a))
		}
		for _, a := range feAddrs {
			fc := rpc.DialFrontend(a)
			f.closers = append(f.closers, fc.Close)
			wc.frontends = append(wc.frontends, fc)
		}
		if s.cdnNodes > 1 {
			for i := range readAddrs {
				order := append([]string{readAddrs[i]}, readAddrs[:i]...)
				order = append(order, readAddrs[i+1:]...)
				pool := rpc.DialCDNPool(order...)
				f.closers = append(f.closers, pool.Close)
				wc.cdnPools = append(wc.cdnPools, pool)
			}
		}
		f.workers = append(f.workers, wc)
	}
	f.keys = clientKeys{mixers: mixerKeys, pkgs: pkgKeys, bls: pkgBLS}
	ok = true
	return f, nil
}

type clientKeys struct {
	mixers []ed25519.PublicKey
	pkgs   []ed25519.PublicKey
	bls    []*bls.PublicKey
}

// addClients creates, registers and confirms the workload's clients.
// Client i runs on worker i mod workers, submits through frontend
// i*frontends/clients, and reads CDN node i mod nodes first.
func (f *fleet) addClients(h *harness) error {
	s := f.spec
	for i := 0; i < s.clients; i++ {
		w := i % len(f.workers)
		wc := f.workers[w]
		bc := &benchClient{
			worker: w, node: i % s.cdnNodes,
			email: fmt.Sprintf("user%03d@bench.example", i), handler: newHandler(),
		}
		fe := wc.frontends[i*s.frontends/s.clients]
		var mailboxes core.MailboxStore = fe
		if len(wc.cdnPools) > 0 {
			mailboxes = wc.cdnPools[bc.node]
		}
		bc.mailboxes = tracedMailboxes{inner: mailboxes, h: h, client: i}
		cfg := core.Config{
			Email:      bc.email,
			Entry:      tracedEntry{inner: fe, h: h, client: i},
			Mailboxes:  bc.mailboxes,
			MixerKeys:  f.keys.mixers,
			PKGKeys:    f.keys.pkgs,
			PKGBLSKeys: f.keys.bls,
			NumIntents: numIntents,
			Handler:    bc.handler,
		}
		for _, p := range wc.pkgs {
			cfg.PKGs = append(cfg.PKGs, tracedPKG{inner: p, h: h})
		}
		c, err := core.NewClient(cfg)
		if err != nil {
			return err
		}
		bc.client = c
		ctx := context.Background()
		if err := c.Register(ctx); err != nil {
			return fmt.Errorf("registering %s: %w", bc.email, err)
		}
		for pi, p := range f.pkgs {
			token, err := f.token(bc.email, p.Name)
			if err != nil {
				return err
			}
			if err := c.ConfirmRegistration(ctx, pi, token); err != nil {
				return fmt.Errorf("confirming %s at %s: %w", bc.email, p.Name, err)
			}
		}
		f.clients = append(f.clients, bc)
	}
	return nil
}

// token reads the newest confirmation token a PKG mailed to addr.
func (f *fleet) token(addr, pkgName string) (string, error) {
	inbox := f.provider.Inbox(addr)
	prefix := fmt.Sprintf("pkg-%s@", pkgName)
	for j := len(inbox) - 1; j >= 0; j-- {
		if strings.HasPrefix(inbox[j].From, prefix) {
			return inbox[j].Body, nil
		}
	}
	return "", fmt.Errorf("no confirmation mail from %s to %s", pkgName, addr)
}

// clientBytes sums the bytes moved on every client connection.
func (f *fleet) clientBytes() (uint64, uint64, error) {
	var bytes, calls uint64
	add := func(st rpc.ClientStats) {
		bytes += st.BytesSent + st.BytesReceived
		calls += st.Calls
	}
	for _, wc := range f.workers {
		for _, p := range wc.pkgs {
			st, err := pkgTransportStats(p)
			if err != nil {
				return 0, 0, err
			}
			add(st)
		}
		for _, fc := range wc.frontends {
			add(fc.TransportStats())
		}
		for _, pool := range wc.cdnPools {
			add(pool.TransportStats())
		}
	}
	return bytes, calls, nil
}

// pkgTransportStats reads the transport counters of a PKG connection.
// rpc.PKGClient does not export them (the frontend and CDN clients do),
// so they are read through its one unexported *rpc.Client field; a change
// of that layout fails the run instead of miscounting.
func pkgTransportStats(p *rpc.PKGClient) (rpc.ClientStats, error) {
	v := reflect.ValueOf(p).Elem()
	field := v.FieldByName("c")
	if !field.IsValid() || field.Type() != reflect.TypeOf((*rpc.Client)(nil)) {
		return rpc.ClientStats{}, fmt.Errorf("rpc.PKGClient has no *rpc.Client field c; update pkgTransportStats")
	}
	c := *(**rpc.Client)(unsafe.Pointer(field.UnsafeAddr()))
	return c.Stats(), nil
}

// mixerStats sums (processed, noise) over every mixer daemon.
func (f *fleet) mixerStats() (processed, noiseSent uint64) {
	for _, m := range f.mixers {
		p, n := m.Stats()
		processed += p
		noiseSent += n
	}
	return processed, noiseSent
}

// coordFeedBytes is what the coordinator moved on its position-0
// connections: the entry batch it streams into the chain plus control.
func (f *fleet) coordFeedBytes() uint64 {
	var n uint64
	for _, mc := range f.coordMix[0] {
		st := mc.TransportStats()
		n += st.BytesSent + st.BytesReceived
	}
	return n
}

func (f *fleet) extractions() uint64 {
	var n uint64
	for _, p := range f.pkgs {
		n += p.Extractions()
	}
	return n
}
