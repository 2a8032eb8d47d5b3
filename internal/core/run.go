package core

// This file is the client's managed round loop: the event-driven
// connection behind the paper's Figure 1 API. Applications call Run (or
// the per-service ConnectAddFriend / ConnectDialing handles) and receive
// everything through their Handler; the library owns the mechanics that
// every consumer previously hand-rolled around frontend.Status polling:
//
//   - Round following. One shared pump per client follows the frontend's
//     round announcements — push-based through RoundWatcher (the
//     entry.events stream, resumable by cursor) with a TRANSPARENT
//     fallback to StatusProvider polling when the frontend predates the
//     stream — and reconnects with exponential backoff when the frontend
//     dies mid-round.
//   - Submit ordering. Each open round is submitted exactly once
//     (cover traffic included), and a round's add-friend mailbox is only
//     scanned when this client submitted that round (the identity keys
//     exist only then).
//   - The bounded dialing backlog. Published rounds queue through
//     QueueDialScans and drain OLDEST-FIRST in consecutive spans, each
//     span fetched with one ranged CDN request instead of per-round
//     fetches.
//   - The §5.1 give-up policy. A dialing round whose mailbox cannot be
//     fetched is retried on a TIME budget (Config.ScanRetryBudget); when
//     the budget runs out the keywheels advance past the round (forward
//     secrecy) and the loop moves on, so one evicted mailbox cannot
//     wedge scanning forever.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"alpenhorn/internal/entry"
	"alpenhorn/internal/wire"
)

const (
	// DefaultPollInterval is the Status poll cadence against frontends
	// without the event stream (Config.PollInterval overrides).
	DefaultPollInterval = 500 * time.Millisecond

	// DefaultScanRetryBudget is how long a failing dialing-round scan is
	// retried before the loop gives up and advances the keywheels
	// (Config.ScanRetryBudget overrides). §5.1's give-up is "after some
	// time" — giving up destroys that round's incoming calls, so the
	// default errs long; it also bounds the head-of-line stall a
	// CDN-evicted round can cause.
	DefaultScanRetryBudget = 5 * time.Minute

	// feedBackoffMin/Max bound the reconnect backoff when the round feed
	// loses the frontend.
	feedBackoffMin = 200 * time.Millisecond
	feedBackoffMax = 5 * time.Second

	// maxScanSpan bounds how many consecutive backlog rounds one ranged
	// mailbox fetch covers.
	maxScanSpan = 32
)

func (c *Client) pollInterval() time.Duration {
	if c.cfg.PollInterval > 0 {
		return c.cfg.PollInterval
	}
	return DefaultPollInterval
}

func (c *Client) scanRetryBudget() time.Duration {
	if c.cfg.ScanRetryBudget > 0 {
		return c.cfg.ScanRetryBudget
	}
	return DefaultScanRetryBudget
}

// roundFeed is the per-client round-announcement pump shared by every
// connected service handle. It folds announcements (pushed or polled)
// into a monotonic per-service RoundStatus and wakes waiting handles on
// every change. Reference-counted: the first handle starts it, the last
// Close stops it.
type roundFeed struct {
	c *Client

	mu      sync.Mutex
	refs    int
	state   map[wire.Service]entry.RoundStatus
	changed chan struct{} // closed and replaced on every state change

	cancel context.CancelFunc
	done   chan struct{}
}

// acquireFeed returns the client's round feed, starting it on first use.
func (c *Client) acquireFeed() (*roundFeed, error) {
	_, isWatcher := c.cfg.Entry.(RoundWatcher)
	_, isPoller := c.cfg.Entry.(StatusProvider)
	if !isWatcher && !isPoller {
		return nil, errors.New("core: Config.Entry supports neither round events (RoundWatcher) nor status polling (StatusProvider); Run needs one")
	}
	c.feedMu.Lock()
	defer c.feedMu.Unlock()
	if c.feed == nil {
		ctx, cancel := context.WithCancel(context.Background())
		f := &roundFeed{
			c:       c,
			state:   make(map[wire.Service]entry.RoundStatus),
			changed: make(chan struct{}),
			cancel:  cancel,
			done:    make(chan struct{}),
		}
		go f.run(ctx)
		c.feed = f
	}
	c.feed.refs++
	return c.feed, nil
}

// releaseFeed drops one reference; the last release stops the pump and
// waits for it to exit (no goroutine outlives the handles).
func (c *Client) releaseFeed(f *roundFeed) {
	c.feedMu.Lock()
	f.refs--
	last := f.refs == 0
	if last {
		c.feed = nil
	}
	c.feedMu.Unlock()
	if last {
		f.cancel()
		<-f.done
	}
}

// status returns a snapshot of one service's folded round progress plus
// the channel that closes on the next state change.
func (f *roundFeed) status(service wire.Service) (entry.RoundStatus, <-chan struct{}) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.state[service], f.changed
}

// fold merges new round progress into the state. Progress is monotonic:
// folding with max makes coalesced (gap) replies and duplicate
// announcements harmless.
func (f *roundFeed) fold(service wire.Service, st entry.RoundStatus) {
	f.mu.Lock()
	if f.foldLocked(service, st) {
		f.wakeLocked()
	}
	f.mu.Unlock()
}

// foldAnnouncements folds a whole batch of announcements as ONE state
// change. A connecting client's first reply replays every retained round;
// waking the service loops per announcement would let the dialing loop
// queue and drain a partial backlog (round 1 alone, then 2–3, …) instead
// of catching up with one ranged fetch.
func (f *roundFeed) foldAnnouncements(anns []entry.Announcement) {
	f.mu.Lock()
	dirty := false
	for _, ann := range anns {
		st := entry.RoundStatus{}
		switch ann.Kind {
		case entry.RoundOpen:
			st.CurrentOpen = ann.Round
		case entry.RoundPublished:
			st.LatestPublished = ann.Round
		}
		if f.foldLocked(ann.Service, st) {
			dirty = true
		}
	}
	if dirty {
		f.wakeLocked()
	}
	f.mu.Unlock()
}

// foldLocked merges st into one service's state and reports whether it
// advanced. Caller holds f.mu.
func (f *roundFeed) foldLocked(service wire.Service, st entry.RoundStatus) bool {
	cur := f.state[service]
	dirty := false
	if st.CurrentOpen > cur.CurrentOpen {
		cur.CurrentOpen = st.CurrentOpen
		dirty = true
	}
	if st.LatestPublished > cur.LatestPublished {
		cur.LatestPublished = st.LatestPublished
		dirty = true
	}
	if dirty {
		f.state[service] = cur
	}
	return dirty
}

// wakeLocked wakes every loop parked on the state. Caller holds f.mu.
func (f *roundFeed) wakeLocked() {
	close(f.changed)
	f.changed = make(chan struct{})
}

// run follows the frontend until the feed is released. Push mode parks on
// WatchRounds and folds announcement batches; on ErrEventsUnsupported it
// degrades permanently to Status polling. Transport failures reconnect
// with exponential backoff and are reported to the handler once per
// outage, not once per attempt.
func (f *roundFeed) run(ctx context.Context) {
	defer close(f.done)
	watcher, _ := f.c.cfg.Entry.(RoundWatcher)
	poller, _ := f.c.cfg.Entry.(StatusProvider)

	var cursor uint64
	backoff := feedBackoffMin
	outage := 0
	sleep := func(d time.Duration) bool {
		select {
		case <-ctx.Done():
			return false
		case <-time.After(d):
			return true
		}
	}

	for ctx.Err() == nil {
		if watcher != nil {
			anns, next, err := watcher.WatchRounds(ctx, cursor)
			if err == nil {
				cursor = next
				backoff, outage = feedBackoffMin, 0
				// Settings riding the open events (EventStreamV2, or
				// the in-process adapter) pre-fill the cache BEFORE the
				// fold wakes the service loops, so their submits start
				// from a hit.
				for _, ann := range anns {
					if ann.Kind == entry.RoundOpen {
						f.c.noteAnnouncedSettings(ann)
					}
				}
				f.foldAnnouncements(anns)
				continue
			}
			if errors.Is(err, ErrEventsUnsupported) {
				// Older frontend: degrade to polling for good.
				watcher = nil
				if poller == nil {
					f.c.reportErr(errors.New("core: frontend streams no round events and serves no status; round loop stalled"))
					<-ctx.Done()
					return
				}
				continue
			}
			if ctx.Err() != nil {
				return
			}
			if outage++; outage == 1 {
				f.c.reportErr(fmt.Errorf("core: round event stream lost: %w (reconnecting)", err))
			}
			if !sleep(backoff) {
				return
			}
			if backoff *= 2; backoff > feedBackoffMax {
				backoff = feedBackoffMax
			}
			continue
		}

		for _, service := range []wire.Service{wire.AddFriend, wire.Dialing} {
			st, err := poller.Status(ctx, service)
			if err != nil {
				if ctx.Err() != nil {
					return
				}
				if outage++; outage == 1 {
					f.c.reportErr(fmt.Errorf("core: frontend status poll failed: %w (retrying)", err))
				}
				continue
			}
			outage = 0
			f.fold(service, st)
		}
		if !sleep(f.c.pollInterval()) {
			return
		}
	}
}

// ServiceHandle is one service's running round loop, created by
// ConnectAddFriend or ConnectDialing. Close stops it and waits for it;
// Err reports why it stopped (nil after a plain Close).
type ServiceHandle struct {
	c       *Client
	service wire.Service
	parent  context.Context
	cancel  context.CancelFunc
	done    chan struct{}

	mu  sync.Mutex
	err error
}

// ConnectAddFriend starts the add-friend round loop: it submits every
// announced round (a queued friend request or cover traffic) and scans
// every published round this client submitted.
func (c *Client) ConnectAddFriend(ctx context.Context) (*ServiceHandle, error) {
	return c.connect(ctx, wire.AddFriend)
}

// ConnectDialing starts the dialing round loop: it submits every
// announced round (a queued call or cover traffic), queues every
// published round into the bounded scan backlog, and drains the backlog
// in ranged fetches under the §5.1 retry/skip policy.
func (c *Client) ConnectDialing(ctx context.Context) (*ServiceHandle, error) {
	return c.connect(ctx, wire.Dialing)
}

func (c *Client) connect(ctx context.Context, service wire.Service) (*ServiceHandle, error) {
	feed, err := c.acquireFeed()
	if err != nil {
		return nil, err
	}
	hctx, cancel := context.WithCancel(ctx)
	h := &ServiceHandle{
		c:       c,
		service: service,
		parent:  ctx,
		cancel:  cancel,
		done:    make(chan struct{}),
	}
	go h.loop(hctx, feed)
	return h, nil
}

// Err reports why the handle stopped: nil while running or after a plain
// Close, the context's error after a cancellation.
func (h *ServiceHandle) Err() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.err
}

// Done is closed when the handle's loop has fully stopped.
func (h *ServiceHandle) Done() <-chan struct{} { return h.done }

// Close stops the handle's round loop and waits for it to exit. Safe to
// call more than once.
func (h *ServiceHandle) Close() {
	h.cancel()
	<-h.done
}

// Run is the managed, event-driven connection from the paper's Figure 1:
// it participates in every add-friend and dialing round — cover traffic
// included, which is what hides the user's real activity — until ctx is
// cancelled, delivering all events through the configured Handler. It
// returns ctx.Err() once both service loops have stopped; cancellation
// mid-round interrupts in-flight server calls rather than waiting them
// out.
func (c *Client) Run(ctx context.Context) error {
	af, err := c.ConnectAddFriend(ctx)
	if err != nil {
		return err
	}
	defer af.Close()
	dl, err := c.ConnectDialing(ctx)
	if err != nil {
		return err
	}
	defer dl.Close()
	<-ctx.Done()
	return ctx.Err()
}

// serviceState is one service loop's progress bookkeeping.
type serviceState struct {
	lastSubmit uint32
	lastScan   uint32
	errStreak  int

	// §5.1 retry budget for the round whose scan keeps failing — the
	// dialing round at the backlog head, or the published add-friend
	// round gating further submissions. One round+deadline pair (not a
	// per-round map, which would leak entries for rounds the backlog cap
	// later drops).
	retryRound    uint32
	retryDeadline time.Time
	retryLogged   bool
}

// loop drives one service until its context ends, working whenever the
// feed's state changes (or a retry delay expires) and parking otherwise.
func (h *ServiceHandle) loop(ctx context.Context, feed *roundFeed) {
	defer close(h.done)
	defer h.c.releaseFeed(feed)
	defer func() {
		// The caller's context is the authoritative cause: a plain Close
		// leaves Err nil even if it races an external cancellation.
		h.mu.Lock()
		h.err = h.parent.Err()
		h.mu.Unlock()
	}()
	var st serviceState
	for {
		snap, changed := feed.status(h.service)
		retry := h.step(ctx, &st, snap)
		if ctx.Err() != nil {
			return
		}
		var timer <-chan time.Time
		if retry > 0 {
			timer = time.After(retry)
		}
		select {
		case <-ctx.Done():
			return
		case <-changed:
		case <-timer:
		}
	}
}

// step performs whatever the service's current round state calls for and
// returns a retry delay (0 = nothing pending; park until the state
// changes). The phases are independent: a submit that keeps failing (the
// round may simply have closed before we saw it) must not starve the
// scan path or the backlog drain.
func (h *ServiceHandle) step(ctx context.Context, st *serviceState, snap entry.RoundStatus) time.Duration {
	c := h.c
	var retry time.Duration
	sooner := func(d time.Duration) {
		if d > 0 && (retry == 0 || d < retry) {
			retry = d
		}
	}

	if h.service == wire.AddFriend {
		// Scan BEFORE submitting: a reconnecting client often learns
		// publish(N) and open(N+1) in one snapshot (coalesced events, or
		// one poll), and submitting N+1 first would gate round N's scan
		// off forever — losing any friend requests it carried.
		// Scan only rounds this client submitted: the round's identity
		// keys exist exactly then (and are erased by the scan).
		if snap.LatestPublished > st.lastScan && snap.LatestPublished == st.lastSubmit {
			round := snap.LatestPublished
			if err := c.ScanAddFriendRound(ctx, round); err != nil {
				// A transiently unavailable mailbox gets the same time
				// budget as a dialing scan: submitting the next round
				// would permanently gate this scan off, so HOLD further
				// submissions while the retry budget runs, then give the
				// round up and move on.
				if ctx.Err() != nil {
					return retry
				}
				if round != st.retryRound {
					st.retryRound = round
					st.retryDeadline = time.Now().Add(c.scanRetryBudget())
					st.retryLogged = false
				}
				if !time.Now().After(st.retryDeadline) {
					if !st.retryLogged {
						c.reportErr(fmt.Errorf("core: add-friend round %d scan: %w (retrying for up to %v)", round, err, c.scanRetryBudget()))
						st.retryLogged = true
					}
					sooner(c.pollInterval())
					return retry
				}
				c.reportErr(fmt.Errorf("core: add-friend round %d scan: %w (giving up after %v)", round, err, c.scanRetryBudget()))
				st.lastScan = round
				st.retryRound = 0
			} else {
				st.lastScan = round
				st.retryRound = 0
				st.errStreak = 0
			}
		}
		if snap.CurrentOpen > st.lastSubmit {
			if err := c.SubmitAddFriendRound(ctx, snap.CurrentOpen); err != nil {
				sooner(h.reportStep(ctx, st, "add-friend", snap.CurrentOpen, "submit", err))
			} else {
				st.lastSubmit = snap.CurrentOpen
				st.errStreak = 0
				// Rounds below the new submission can never be scanned
				// now; their cached identity keys must not outlive them
				// (§4.4). Covers failed rounds (never published) and
				// scans the budget gave up on.
				c.discardStaleRoundKeys(snap.CurrentOpen)
			}
		}
		return retry
	}

	if snap.CurrentOpen > st.lastSubmit {
		if err := c.SubmitDialRound(ctx, snap.CurrentOpen); err != nil {
			sooner(h.reportStep(ctx, st, "dialing", snap.CurrentOpen, "submit", err))
		} else {
			st.lastSubmit = snap.CurrentOpen
			st.errStreak = 0
		}
	}
	if snap.LatestPublished > 0 {
		c.QueueDialScans(snap.LatestPublished)
	}
	sooner(h.drainDialBacklog(ctx, st))
	return retry
}

// reportStep reports a failing submit/scan once per streak and paces the
// retry. The failed round stays un-acknowledged in the loop state, so the
// next step retries it until the frontend moves on.
func (h *ServiceHandle) reportStep(ctx context.Context, st *serviceState, service string, round uint32, phase string, err error) time.Duration {
	if ctx.Err() != nil {
		return 0
	}
	if st.errStreak++; st.errStreak == 1 {
		h.c.reportErr(fmt.Errorf("core: %s round %d %s: %w (will retry)", service, round, phase, err))
	}
	return h.c.pollInterval()
}

// drainDialBacklog scans queued published rounds oldest-first. A span of
// consecutive rounds is PEEKED (each round leaves the crash-persistent
// backlog only when its scan completes, so a restart mid-span resumes
// exactly where it stopped) and its mailboxes fetched with ONE ranged CDN
// request; a round that cannot be scanned is retried on the §5.1 time
// budget and then skipped (keywheels advanced) so the backlog keeps
// draining in order. A failure in the middle of a span never blocks the
// rounds before it: the scannable prefix is processed first and the
// failing round handles its budget when it reaches the head.
func (h *ServiceHandle) drainDialBacklog(ctx context.Context, st *serviceState) time.Duration {
	c := h.c
	for {
		span := c.peekDialScanSpan(maxScanSpan)
		if len(span) == 0 {
			return 0
		}

		// Per-round settings: NumMailboxes (and so this client's mailbox
		// ID) can differ between rounds. Usually a cache hit — the round's
		// open announcement or submit already delivered them.
		var failed error
		mailboxes := make([]uint32, 0, len(span))
		for _, round := range span {
			settings, err := c.roundSettings(ctx, wire.Dialing, round, false)
			if err != nil {
				failed = fmt.Errorf("core: dialing round %d settings: %w", round, err)
				break
			}
			mailboxes = append(mailboxes, wire.MailboxID(c.cfg.Email, settings.NumMailboxes))
		}
		if len(mailboxes) == 0 {
			return h.scanFailed(ctx, st, span[0], failed)
		}
		span = span[:len(mailboxes)] // scan the working prefix first

		// Fetch the span's mailboxes: one ranged request per run of equal
		// mailbox IDs (a single Fetch when the run is one round).
		boxes := make(map[uint32][]byte, len(span))
		fetched := len(span)
		for lo := 0; lo < len(span); {
			hi := lo + 1
			for hi < len(span) && mailboxes[hi] == mailboxes[lo] {
				hi++
			}
			if hi-lo == 1 {
				box, err := c.cfg.Mailboxes.Fetch(ctx, wire.Dialing, span[lo], mailboxes[lo])
				if err == nil {
					boxes[span[lo]] = box
				}
				// A failed single fetch leaves the round absent, like a
				// ranged reply: the scan loop below applies the budget.
			} else if ranged, err := c.cfg.Mailboxes.FetchRange(ctx, wire.Dialing, span[lo], span[hi-1], mailboxes[lo]); err == nil {
				for r, box := range ranged {
					boxes[r] = box
				}
			} else {
				failed = fmt.Errorf("core: ranged mailbox fetch rounds %d-%d: %w", span[lo], span[hi-1], err)
				fetched = lo
				break
			}
			lo = hi
		}
		if fetched == 0 {
			return h.scanFailed(ctx, st, span[0], failed)
		}
		span = span[:fetched]

		for _, round := range span {
			box, ok := boxes[round]
			if !ok {
				return h.scanFailed(ctx, st, round, fmt.Errorf("core: dialing round %d mailbox unavailable", round))
			}
			if err := c.scanDialBox(round, box); err != nil {
				return h.scanFailed(ctx, st, round, fmt.Errorf("core: dialing round %d scan: %w", round, err))
			}
			c.finishDialScan(round)
			if round == st.retryRound {
				st.retryRound = 0 // the struggling round made it after all
			}
		}
	}
}

// scanFailed applies the §5.1 policy to a round that could not be
// scanned. Every round before it in the span has already been scanned
// and removed, so the failing round is at the backlog head: retry within
// the time budget, then give up — advance the keywheels past the round
// (destroying its calls, preserving forward secrecy), drop it from the
// backlog, and keep draining.
func (h *ServiceHandle) scanFailed(ctx context.Context, st *serviceState, round uint32, err error) time.Duration {
	c := h.c
	if ctx.Err() != nil {
		return 0
	}
	if round != st.retryRound {
		st.retryRound = round
		st.retryDeadline = time.Now().Add(c.scanRetryBudget())
		st.retryLogged = false
	}
	if time.Now().After(st.retryDeadline) {
		c.reportErr(fmt.Errorf("%w (giving up after %v, advancing keywheels)", err, c.scanRetryBudget()))
		c.SkipDialRound(round)
		c.finishDialScan(round)
		st.retryRound = 0
		// More backlog may be scannable right now.
		return time.Nanosecond
	}
	if !st.retryLogged {
		c.reportErr(fmt.Errorf("%w (retrying for up to %v)", err, c.scanRetryBudget()))
		st.retryLogged = true
	}
	return c.pollInterval()
}
