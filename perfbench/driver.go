package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"alpenhorn/internal/cdn"
	"alpenhorn/internal/coordinator"
	"alpenhorn/internal/sim"
	"alpenhorn/internal/wire"
)

// numIntents is the paper's evaluation default (§8.1).
const numIntents = 10

type roundKey struct {
	service wire.Service
	round   uint32
}

// harness is the state the client wrappers share with the round driver:
// the tracer, the injected fault, the expected mailbox contents and the
// failure count.
type harness struct {
	tr    *tracer
	fault fault

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
	expect    map[roundKey][]int

	fetches, fetchBytes int // mailboxes clients fetched, and their bytes
}

func newHarness() *harness { return &harness{expect: make(map[roundKey][]int)} }

// check counts one checked operation and whether it failed.
func (h *harness) check(ok bool, format string, args ...any) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.attempted++
	if !ok {
		h.failed++
		if len(h.failures) < 20 {
			h.failures = append(h.failures, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

func (h *harness) fetchStats() (fetches, bytes int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.fetches, h.fetchBytes
}

func (h *harness) checkErr(err error, what string) bool {
	return h.check(err == nil, "%s: %v", what, err)
}

// checkFetched checks a mailbox a client fetched against the round's
// expected entry count: its real requests plus the chain's b=0 noise.
func (h *harness) checkFetched(service wire.Service, round uint32, mailbox uint32, data []byte) {
	h.mu.Lock()
	want := h.expect[roundKey{service, round}]
	h.mu.Unlock()
	h.mu.Lock()
	h.fetches++
	h.fetchBytes += len(data)
	h.mu.Unlock()
	n, err := mailboxEntries(service, data)
	h.check(err == nil && int(mailbox) < len(want) && n == want[mailbox],
		"%v round %d mailbox %d fetched with %d entries (%v), want %v", service, round, mailbox, n, err, want)
}

// roundSample is what one timed round measured.
type roundSample struct {
	cycle     time.Duration   // open through the last scan, excluding untimed batch generation
	open      time.Duration   // OpenXRound
	close     time.Duration   // CloseRound call
	ready     []time.Duration // CloseRound call to sealed, per CDN node
	submits   []time.Duration // per client
	delivers  []time.Duration // per scanning client
	batch     int             // onions admitted by the frontends
	want      []int           // expected entries per mailbox
	generate  time.Duration   // synthetic batch generation (untimed)
	daemons   []coordinator.DaemonRoundStats
	noise     uint64 // noise onions the mixers generated
	onionsIn  uint64 // onions entering the chain positions, summed over positions
	feed      uint64 // coordinator bytes on its position-0 connections
	extracted uint64 // PKG extractions
	scanned   int    // mailbox entries the scanning clients trial-decrypted
	clientB   uint64 // bytes on client connections
	calls     uint64 // calls on client connections
}

// driver runs closed-loop rounds against one fleet.
type driver struct {
	f *fleet
	s spec
	h *harness

	sched     *rand.Rand // friend graph, call schedule, scan sample
	batchRand *rand.Rand // synthetic cover batches

	afRound, dialRound uint32

	// Add-friend schedule: clients answering a request this round (to
	// the requester), the previous round's requests awaiting
	// confirmation, and every pair ever requested.
	responders map[int]int
	lastPairs  [][2]int
	known      map[[2]int]bool

	ring []int // dialing friend graph: a seeded cycle over the clients
}

func newDriver(f *fleet, h *harness, seed int64) *driver {
	return &driver{
		f: f, s: f.spec, h: h,
		sched:      rand.New(rand.NewSource(seed)),
		batchRand:  rand.New(rand.NewSource(seed ^ 0x5eed)),
		responders: make(map[int]int),
		known:      make(map[[2]int]bool),
	}
}

// forEach runs fn for the given clients on the fleet's workers, each
// client on its own worker, and returns each call's duration in the
// order of idxs. A non-empty spanName wraps each call in a span under
// ctx.
func (d *driver) forEach(ctx context.Context, idxs []int, spanName string, fn func(ctx context.Context, c *benchClient) error) []time.Duration {
	durs := make([]time.Duration, len(idxs))
	perWorker := make([][]int, len(d.f.workers))
	for k, i := range idxs {
		w := d.f.clients[i].worker
		perWorker[w] = append(perWorker[w], k)
	}
	var wg sync.WaitGroup
	for _, ks := range perWorker {
		wg.Add(1)
		go func(ks []int) {
			defer wg.Done()
			for _, k := range ks {
				c := d.f.clients[idxs[k]]
				cctx, end := ctx, func() {}
				if spanName != "" {
					cctx, end = d.h.tr.start(ctx, spanName)
				}
				start := time.Now()
				err := fn(cctx, c)
				durs[k] = time.Since(start)
				end()
				d.h.checkErr(err, c.email)
			}
		}(ks)
	}
	wg.Wait()
	return durs
}

func (d *driver) all() []int {
	idxs := make([]int, len(d.f.clients))
	for i := range idxs {
		idxs[i] = i
	}
	return idxs
}

// counters snapshots the fleet's cumulative counters before a round.
type counters struct {
	noise, extracted, feed, clientB, calls uint64
}

func (d *driver) counters() counters {
	_, n := d.f.mixerStats()
	b, calls, err := d.f.clientBytes()
	d.h.checkErr(err, "client transport stats")
	return counters{noise: n, extracted: d.f.extractions(), feed: d.f.coordFeedBytes(), clientB: b, calls: calls}
}

// closeRound closes the round, waits until every CDN node holds it, and
// checks the round's health, noise and mailboxes. want is the expected
// entry count per mailbox.
func (d *driver) closeRound(ctx context.Context, smp *roundSample, service wire.Service, round uint32, want []int, before counters) {
	for _, e := range d.f.entries {
		smp.batch += e.BatchSize(service, round)
	}
	smp.want = want
	d.h.mu.Lock()
	d.h.expect[roundKey{service, round}] = want
	d.h.mu.Unlock()

	_, end := d.h.tr.start(ctx, "coordinator.close")
	start := time.Now()
	_, err := d.f.coord.CloseRound(service, round)
	smp.close = time.Since(start)
	end()
	d.h.checkErr(err, fmt.Sprintf("close %v round %d", service, round))

	smp.ready = make([]time.Duration, len(d.f.stores))
	for i, st := range d.f.stores {
		ok := waitPublished(st, service, round, 30*time.Second)
		smp.ready[i] = time.Since(start)
		d.h.check(ok, "%v round %d never sealed on CDN node %d", service, round, i)
	}
	if n := len(smp.ready); n > 1 {
		d.h.tr.record(ctx, "cdn.replicate", start.Add(smp.ready[0]), start.Add(smp.ready[n-1]))
	}

	var health *coordinator.RoundHealth
	status := d.f.coord.Status()
	for i := len(status) - 1; i >= 0; i-- {
		if status[i].Service == service && status[i].Round == round {
			health = &status[i]
			break
		}
	}
	if d.h.check(health != nil, "%v round %d has no health record", service, round) {
		d.h.check(health.Err == "" && health.Forwarded, "%v round %d health: forwarded=%v err=%q", service, round, health.Forwarded, health.Err)
		smp.daemons = health.Daemons
	}

	after := d.counters()
	smp.noise = after.noise - before.noise
	smp.extracted = after.extracted - before.extracted
	smp.feed = after.feed - before.feed
	mu := d.s.afMu
	if service == wire.Dialing {
		mu = d.s.dialMu
	}
	perPosition := uint64(mu) * uint64(len(want))
	d.h.check(smp.noise == uint64(d.s.positions)*perPosition, "%v round %d: %d noise onions, want %d", service, round, smp.noise, uint64(d.s.positions)*perPosition)
	for p := 0; p < d.s.positions; p++ {
		smp.onionsIn += uint64(smp.batch) + uint64(p)*perPosition
	}

	for mb := range want {
		data, err := d.f.stores[0].Fetch(service, round, uint32(mb))
		n, cerr := mailboxEntries(service, data)
		d.h.check(err == nil && cerr == nil && n == want[mb], "%v round %d mailbox %d sealed with %d entries (%v %v), want %d", service, round, mb, n, err, cerr, want[mb])
	}
}

func waitPublished(st *cdn.Store, service wire.Service, round uint32, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for !st.Published(service, round) {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
	return true
}

// finishRound checks that no client reported an asynchronous error and
// records the client transport counters.
func (d *driver) finishRound(smp *roundSample, before counters) {
	for _, c := range d.f.clients {
		for _, err := range c.handler.takeErrors() {
			d.h.checkErr(err, c.email)
		}
	}
	after := d.counters()
	smp.clientB = after.clientB - before.clientB
	smp.calls = after.calls - before.calls
}

// pickPairs draws this round's new friend requests: newPairs pairs of
// distinct clients that are not answering a request this round and were
// never paired before.
func (d *driver) pickPairs() [][2]int {
	var avail []int
	for _, i := range d.sched.Perm(d.s.clients) {
		if _, busy := d.responders[i]; !busy {
			avail = append(avail, i)
		}
	}
	used := make(map[int]bool)
	var pairs [][2]int
	for _, a := range avail {
		if len(pairs) == d.s.newPairs {
			break
		}
		if used[a] {
			continue
		}
		for _, b := range avail {
			if b == a || used[b] || d.known[[2]int{a, b}] {
				continue
			}
			used[a], used[b] = true, true
			pairs = append(pairs, [2]int{a, b})
			break
		}
	}
	return pairs
}

// addFriendRound runs one closed-loop add-friend round. pairs are the
// new friend requests it carries besides the responses to the previous
// round's. The round's recipients plus a seeded sample of extraScanners
// other clients scan; the rest only fetch their mailbox.
func (d *driver) addFriendRound(pairs [][2]int) *roundSample {
	d.afRound++
	r := d.afRound
	cl := d.f.clients
	smp := &roundSample{}
	for _, p := range pairs {
		d.known[p], d.known[[2]int{p[1], p[0]}] = true, true
		d.h.checkErr(cl[p[0]].client.AddFriend(cl[p[1]].email, nil), "add friend")
	}
	before := d.counters()

	rootCtx, endRoot := d.h.tr.start(context.Background(), "round")
	cycleStart := time.Now()
	_, endOpen := d.h.tr.start(rootCtx, "coordinator.open")
	start := time.Now()
	settings, err := d.f.coord.OpenAddFriendRound(r)
	smp.open = time.Since(start)
	endOpen()
	if !d.h.checkErr(err, fmt.Sprintf("open add-friend round %d", r)) {
		endRoot()
		return nil
	}
	d.h.check(settings.PairingV2(), "add-friend round %d opened at pairing v%d, want v2", r, settings.PairingVersion)

	smp.submits = d.forEach(rootCtx, d.all(), "client.submit", func(ctx context.Context, c *benchClient) error {
		return c.client.SubmitAddFriendRound(ctx, r)
	})

	k := settings.NumMailboxes
	want := make([]int, k)
	for i := range want {
		want[i] = d.s.positions * int(d.s.afMu)
	}
	recipients := make(map[int]bool)
	for _, p := range pairs {
		want[wire.MailboxID(cl[p[1]].email, k)]++
		recipients[p[1]] = true
	}
	for _, requester := range d.responders {
		want[wire.MailboxID(cl[requester].email, k)]++
		recipients[requester] = true
	}
	d.closeRound(rootCtx, smp, wire.AddFriend, r, want, before)
	d.h.check(smp.extracted == uint64(d.s.clients*d.s.pkgs), "add-friend round %d: %d extractions, want %d", r, smp.extracted, d.s.clients*d.s.pkgs)

	scan := make(map[int]bool)
	var rest []int
	for i := range cl {
		if recipients[i] {
			scan[i] = true
		} else {
			rest = append(rest, i)
		}
	}
	d.sched.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	for i := 0; i < len(rest) && i < d.s.extraScanners; i++ {
		scan[rest[i]] = true
	}
	var scanners, fetchers []int
	for i := range cl {
		if scan[i] {
			scanners = append(scanners, i)
		} else {
			fetchers = append(fetchers, i)
		}
	}
	durs := d.forEach(rootCtx, scanners, "client.scan", func(ctx context.Context, c *benchClient) error {
		return c.client.ScanAddFriendRound(ctx, r)
	})
	for k, i := range scanners {
		smp.delivers = append(smp.delivers, smp.ready[cl[i].node]+durs[k])
		smp.scanned += want[wire.MailboxID(cl[i].email, settings.NumMailboxes)]
	}
	d.forEach(rootCtx, fetchers, "", func(ctx context.Context, c *benchClient) error {
		_, err := c.mailboxes.Fetch(ctx, wire.AddFriend, r, wire.MailboxID(c.email, k))
		return err
	})
	smp.cycle = time.Since(cycleStart)
	endRoot()

	for _, p := range d.lastPairs {
		a, b := cl[p[0]], cl[p[1]]
		d.h.check(a.client.IsFriend(b.email) && b.client.IsFriend(a.email), "friend request %s -> %s (round %d) not confirmed on both sides", a.email, b.email, r-1)
	}
	d.lastPairs = pairs
	d.responders = make(map[int]int)
	for _, p := range pairs {
		d.responders[p[1]] = p[0]
	}
	d.finishRound(smp, before)
	return smp
}

// befriendRing makes the dialing friend graph: a seeded cycle over the
// clients, each client befriending both neighbours. Even positions
// request their right neighbour first and odd ones after, so no client
// has two requests queued in one round.
func (d *driver) befriendRing() {
	d.ring = d.sched.Perm(d.s.clients)
	n := len(d.ring)
	for parity := 0; parity < 2; parity++ {
		var pairs [][2]int
		for k := parity; k < n; k += 2 {
			pairs = append(pairs, [2]int{d.ring[k], d.ring[(k+1)%n]})
		}
		d.addFriendRound(pairs)
		d.addFriendRound(nil)
	}
}

// plannedCall is one call the schedule queued for a round.
type plannedCall struct {
	from, to int
	intent   uint32
}

// dialingRound runs one closed-loop dialing round. With calls, every
// client calls a seeded one of its two ring neighbours with a seeded
// intent, and a seeded synthetic cover batch of spec.cover onions joins
// the round through the frontends' entry servers; generating and
// submitting it is not timed. Without calls every client sends cover and
// no synthetic batch is added.
func (d *driver) dialingRound(calls bool) *roundSample {
	d.dialRound++
	r := d.dialRound
	cl := d.f.clients
	smp := &roundSample{}
	var planned []plannedCall
	if calls {
		pos := make(map[int]int, len(d.ring))
		for k, i := range d.ring {
			pos[i] = k
		}
		n := len(d.ring)
		for i := range cl {
			step := 1
			if d.sched.Intn(2) == 0 {
				step = n - 1
			}
			pc := plannedCall{from: i, to: d.ring[(pos[i]+step)%n], intent: uint32(d.sched.Intn(numIntents))}
			d.h.checkErr(cl[i].client.Call(cl[pc.to].email, pc.intent), "queue call")
			planned = append(planned, pc)
		}
	}
	d.f.coord.SetExpectedVolume(wire.Dialing, d.s.cover+d.s.clients)
	before := d.counters()

	rootCtx, endRoot := d.h.tr.start(context.Background(), "round")
	cycleStart := time.Now()
	_, endOpen := d.h.tr.start(rootCtx, "coordinator.open")
	start := time.Now()
	settings, err := d.f.coord.OpenDialingRound(r)
	smp.open = time.Since(start)
	endOpen()
	if !d.h.checkErr(err, fmt.Sprintf("open dialing round %d", r)) {
		endRoot()
		return nil
	}

	if calls {
		_, endGen := d.h.tr.start(rootCtx, "sim.generate")
		genStart := time.Now()
		batch := d.generateCover(settings)
		var err error
		for j, onion := range batch {
			e := d.f.entries[j*len(d.f.entries)/len(batch)]
			if serr := e.Submit(wire.Dialing, r, onion); serr != nil && err == nil {
				err = serr
			}
		}
		d.h.checkErr(err, "submit synthetic batch")
		// The entry servers copied the onions: collect the generator's
		// garbage here, in its own untimed phase, not during the timed
		// submits that follow.
		runtime.GC()
		smp.generate = time.Since(genStart)
		endGen()
	}

	smp.submits = d.forEach(rootCtx, d.all(), "client.submit", func(ctx context.Context, c *benchClient) error {
		return c.client.SubmitDialRound(ctx, r)
	})

	k := settings.NumMailboxes
	d.h.check(!calls || k == uint32(d.s.mailboxes), "dialing round %d has %d mailboxes, want %d", r, k, d.s.mailboxes)
	want := make([]int, k)
	for i := range want {
		want[i] = d.s.positions * int(d.s.dialMu)
	}
	for _, pc := range planned {
		want[wire.MailboxID(cl[pc.to].email, k)]++
	}
	d.closeRound(rootCtx, smp, wire.Dialing, r, want, before)

	durs := d.forEach(rootCtx, d.all(), "client.scan", func(ctx context.Context, c *benchClient) error {
		return c.client.ScanDialRound(ctx, r)
	})
	for i, dur := range durs {
		smp.delivers = append(smp.delivers, smp.ready[cl[i].node]+dur)
	}
	smp.cycle = time.Since(cycleStart) - smp.generate
	endRoot()

	for _, pc := range planned {
		from, to := cl[pc.from], cl[pc.to]
		out, okOut := from.handler.call(false, callKey{to.email, r, pc.intent})
		in, okIn := to.handler.call(true, callKey{from.email, r, pc.intent})
		d.h.check(okOut && okIn && out.SessionKey == in.SessionKey,
			"call %s -> %s round %d intent %d: sent=%v received=%v", from.email, to.email, r, pc.intent, okOut, okIn)
	}
	d.finishRound(smp, before)
	return smp
}

// generateParts is how many goroutines build a synthetic batch. It is
// fixed, not nproc, so that a seed gives the same batch on any machine.
const generateParts = 4

// generateCover builds the round's synthetic cover batch with
// sim.GenerateBatch in generateParts parts. Each part draws from its own
// source seeded from batchRand, so a seed gives the same batch.
func (d *driver) generateCover(settings *wire.RoundSettings) [][]byte {
	parts := make([][][]byte, generateParts)
	var wg sync.WaitGroup
	for p := range parts {
		n := d.s.cover*(p+1)/len(parts) - d.s.cover*p/len(parts)
		src := rand.New(rand.NewSource(d.batchRand.Int63()))
		wg.Add(1)
		go func(p, n int) {
			defer wg.Done()
			b, err := sim.GenerateBatch(src, settings, sim.Workload{Cover: n})
			d.h.checkErr(err, "generate synthetic batch")
			parts[p] = b
		}(p, n)
	}
	wg.Wait()
	var batch [][]byte
	for _, b := range parts {
		batch = append(batch, b...)
	}
	return batch
}
