// Command alpenhorn-bench regenerates the data series behind every figure
// and measured claim in the Alpenhorn paper's evaluation (§8).
//
//	alpenhorn-bench -fig 6          # add-friend bandwidth vs round duration
//	alpenhorn-bench -fig 7          # dialing bandwidth vs round duration
//	alpenhorn-bench -fig 8          # add-friend latency vs users/servers
//	alpenhorn-bench -fig 9          # dialing latency vs users/servers
//	alpenhorn-bench -fig 10         # latency under Zipf-skewed popularity
//	alpenhorn-bench -exp sizes      # message sizes vs paper
//	alpenhorn-bench -exp extraction # key-extraction latency vs #PKGs
//	alpenhorn-bench -exp ibe-sweep  # IBE cost scaling (§8.6)
//	alpenhorn-bench -exp ibe-bench  # T1/T4 pairing throughput (decrypts, extractions, mailbox scan)
//	alpenhorn-bench -exp mix-cal    # measure per-message mix cost (used by figs 8/9)
//	alpenhorn-bench -exp mix-compare # full-batch chain (1 worker, worker pool) vs pipelined round cost
//	alpenhorn-bench -exp chain-forward # relayed vs server-forwarded data plane over TCP
//	alpenhorn-bench -exp shard-compare # unsharded vs shard-group positions over TCP
//	alpenhorn-bench -exp churn      # round availability with hot spares under daemon kills
//	alpenhorn-bench -exp fanout-load # waiter-scale fan-out + tracking requests per client per round
//	alpenhorn-bench -exp cdn-load   # CDN seal throughput, fetch p50/p99, replication lag
//	alpenhorn-bench -all            # everything
//
// -json FILE writes the shard-compare / churn / fanout-load / ibe-bench /
// cdn-load results as a JSON record (CI
// uploads them per PR to track the perf trajectory).
//
// The -parallelism flag sets the mixers' decryption/noise worker count for
// every experiment that runs real rounds (0 = GOMAXPROCS, 1 = the
// sequential pre-pipeline path).
//
// Figures 6/7/10 come from the analytic model driven by this codebase's
// real message sizes (cross-validated against real rounds in the test
// suite). Figures 8/9 splice a measured per-message mix cost from a real
// in-process round into the latency model, and print both "ours" (big.Int
// pairing) and "paper-calibrated" (assembly-pairing cost constants) series
// so shape and absolute scale can be compared. See EXPERIMENTS.md.
package main

import (
	"context"
	"crypto/rand"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"sort"
	"time"

	"alpenhorn/internal/cdn"
	"alpenhorn/internal/coordinator"
	"alpenhorn/internal/core"
	"alpenhorn/internal/entry"
	"alpenhorn/internal/ibe"
	"alpenhorn/internal/keywheel"
	"alpenhorn/internal/mixnet"
	"alpenhorn/internal/model"
	"alpenhorn/internal/noise"
	"alpenhorn/internal/rpc"
	"alpenhorn/internal/sim"
	"alpenhorn/internal/wire"
)

func main() {
	fig := flag.Int("fig", 0, "paper figure to regenerate (6-10)")
	exp := flag.String("exp", "", "named experiment: sizes, extraction, ibe-sweep, ibe-bench, mix-cal, mix-compare, chain-forward, shard-compare, churn, fanout-load, cdn-load")
	all := flag.Bool("all", false, "run everything")
	users := flag.Int("calibration-batch", 4000, "batch size for real-round mix calibration")
	par := flag.Int("parallelism", 0, "mixer decryption/noise workers (0 = GOMAXPROCS, 1 = sequential)")
	jsonOut := flag.String("json", "", "write machine-readable results (shard-compare, churn, fanout-load, ibe-bench, cdn-load) to this file")
	baseline := flag.String("baseline", "", "committed ibe-bench JSON record to diff speedup ratios against; exits nonzero on >30% regression")
	flag.Parse()
	parallelism = *par
	jsonPath = *jsonOut
	baselinePath = *baseline

	any := false
	run := func(n int, name string, fn func(batch int)) {
		if *all || *fig == n || (*exp != "" && *exp == name) {
			fn(*users)
			any = true
		}
	}
	run(6, "", fig6)
	run(7, "", fig7)
	run(8, "", fig8)
	run(9, "", fig9)
	run(10, "", fig10)
	run(-1, "sizes", func(int) { sizes() })
	run(-1, "extraction", func(int) { extraction() })
	run(-1, "ibe-sweep", func(int) { ibeSweep() })
	run(-1, "ibe-bench", func(int) { ibeBench() })
	run(-1, "mix-cal", func(batch int) { fmt.Printf("mix cost: %.2f µs/message/server\n", measureMixCost(batch)*1e6) })
	run(-1, "mix-compare", mixCompare)
	run(-1, "chain-forward", chainForwardCompare)
	run(-1, "shard-compare", shardCompare)
	run(-1, "churn", churnBench)
	run(-1, "fanout-load", func(int) { fanoutLoad() })
	run(-1, "cdn-load", func(int) { cdnLoad() })
	if !any {
		flag.Usage()
		os.Exit(2)
	}
}

// parallelism is the -parallelism flag: mixer worker count for every
// experiment that runs real rounds.
var parallelism int

// jsonPath is the -json flag: where JSON-writing experiments record
// results. With -all, several experiments write JSON in one run; the
// first keeps the given path and later ones append their name, so no
// record silently clobbers another.
var jsonPath string

// baselinePath is the -baseline flag: a previously committed ibe-bench
// record whose speedup ratios gate the fresh run (see checkIBEBaseline).
// The baseline is read before writeJSONRecord runs, so pointing -json and
// -baseline at the same file compares against the old record, then
// replaces it.
var baselinePath string

// jsonPathUsedBy remembers which experiment wrote jsonPath verbatim.
var jsonPathUsedBy string

// writeJSONRecord writes one experiment's record to the -json path (or a
// derived "<path>.<exp>.json" when another experiment already claimed the
// path this run) and prints where it went.
func writeJSONRecord(exp string, record any) {
	if jsonPath == "" {
		return
	}
	path := jsonPath
	if jsonPathUsedBy == "" {
		jsonPathUsedBy = exp
	} else if jsonPathUsedBy != exp {
		path = jsonPath + "." + exp + ".json"
	}
	data, err := json.MarshalIndent(record, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwrote %s\n", path)
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

// fig6 prints Figure 6: add-friend client bandwidth vs round duration.
func fig6(int) {
	header("Figure 6: add-friend client bandwidth vs round duration")
	durations := []float64{0.5, 1, 2, 3, 4, 6, 8, 10, 12, 16, 20, 24} // hours
	fmt.Printf("%-10s %12s %12s %12s\n", "round(h)", "100K(KB/s)", "1M(KB/s)", "10M(KB/s)")
	for _, h := range durations {
		fmt.Printf("%-10.1f", h)
		for _, u := range []float64{1e5, 1e6, 1e7} {
			p := model.PaperParams(u, 3)
			fmt.Printf(" %12.3f", p.AddFriendBandwidth(h*3600)/1024)
		}
		fmt.Println()
	}
	p := model.PaperParams(1e6, 3)
	mb := p.AddFriendMailboxModel()
	fmt.Printf("\n1M users: %d mailboxes, %.0f real + %.0f noise requests each, %.1f MB/mailbox\n",
		int(mb.NumMailboxes), mb.RealRequests, mb.NoiseRequests, mb.Bytes/1e6)
	fmt.Printf("(paper: 4 mailboxes, ~12000+12000 requests, 7.4 MB at 308 B/request;\n")
	fmt.Printf(" ours uses %d B/request — uncompressed BN254 points)\n", wire.EncryptedFriendRequestSize)
}

// fig7 prints Figure 7: dialing client bandwidth vs round duration.
func fig7(int) {
	header("Figure 7: dialing client bandwidth vs round duration")
	durations := []float64{1, 2, 3, 4, 5, 8, 10} // minutes
	fmt.Printf("%-10s %12s %12s %12s\n", "round(min)", "100K(KB/s)", "1M(KB/s)", "10M(KB/s)")
	for _, m := range durations {
		fmt.Printf("%-10.0f", m)
		for _, u := range []float64{1e5, 1e6, 1e7} {
			p := model.PaperParams(u, 3)
			fmt.Printf(" %12.3f", p.DialingBandwidth(m*60)/1024)
		}
		fmt.Println()
	}
	for _, u := range []float64{1e6, 1e7} {
		mb := model.PaperParams(u, 3).DialingMailboxModel()
		fmt.Printf("\n%.0fM users: %d Bloom filters, %.0f tokens each, %.2f MB/filter",
			u/1e6, int(mb.NumMailboxes), mb.RealTokens+mb.NoiseTokens, mb.Bytes/1e6)
	}
	fmt.Printf("\n(paper: 1 filter/125K tokens/0.75 MB at 1M; 7 filters/150K/0.9 MB at 10M)\n")
}

// benchDialingRound builds a 3-server in-process chain with the
// requested mixer parallelism and opens a dialing round on it carrying a
// generated batch, ready to close or to mix by hand.
func benchDialingRound(batchSize, workers int) (*coordinator.Coordinator, []*mixnet.Server, *wire.RoundSettings, [][]byte) {
	nz := noise.Laplace{Mu: 2, B: 0}
	var mixers []*mixnet.Server
	for i := 0; i < 3; i++ {
		m, err := mixnet.New(mixnet.Config{
			Name: "m", Position: i, ChainLength: 3,
			AddFriendNoise: &nz, DialingNoise: &nz,
			Parallelism: workers,
		})
		if err != nil {
			log.Fatal(err)
		}
		mixers = append(mixers, m)
	}
	coord := coordinator.New(entry.New(), mixers, nil, cdn.NewStore(2))
	coord.SetExpectedVolume(wire.Dialing, batchSize)
	settings, err := coord.OpenDialingRound(1)
	if err != nil {
		log.Fatal(err)
	}
	batch, err := sim.GenerateBatch(nil, settings, sim.Workload{
		Real: batchSize / 20, Cover: batchSize - batchSize/20,
	})
	if err != nil {
		log.Fatal(err)
	}
	return coord, mixers, settings, batch
}

// timeFullBatchChain times one dialing round through mixnet.Chain: every
// server mixes the whole batch before the next one starts.
func timeFullBatchChain(batchSize, workers int) float64 {
	_, mixers, settings, batch := benchDialingRound(batchSize, workers)
	start := time.Now()
	if _, err := mixnet.Chain(mixers, wire.Dialing, 1, settings.NumMailboxes, batch); err != nil {
		log.Fatal(err)
	}
	return time.Since(start).Seconds()
}

// timePipelinedRound times one dialing round closed by the coordinator:
// the streaming pipeline with noise prepared at round open.
func timePipelinedRound(batchSize, workers int) float64 {
	coord, _, _, batch := benchDialingRound(batchSize, workers)
	for _, onion := range batch {
		if err := coord.Entry.Submit(wire.Dialing, 1, onion); err != nil {
			log.Fatal(err)
		}
	}
	start := time.Now()
	if _, err := coord.CloseRound(wire.Dialing, 1); err != nil {
		log.Fatal(err)
	}
	return time.Since(start).Seconds()
}

// measureMixCost runs a real dialing round through a 3-server in-process
// chain and returns seconds per message per server. The chain runs with
// full-batch barriers (mixnet.Chain) so that dividing by the server count
// is meaningful — with the streaming pipeline the stages overlap and the
// per-server cost would be undercounted. -parallelism 1 reproduces the
// paper's single-thread calibration; the default measures this machine's
// parallel decrypt rate. Pipeline gains are measured by mix-compare.
func measureMixCost(batchSize int) float64 {
	return timeFullBatchChain(batchSize, parallelism) / float64(batchSize) / 3
}

// mixCompare prints the full-batch-vs-pipelined round cost comparison for
// the mix chain.
func mixCompare(batchSize int) {
	header("Mix execution modes: full-batch chain vs pipelined")
	fmt.Printf("3 servers, dialing, batch %d, GOMAXPROCS %d\n\n", batchSize, runtime.GOMAXPROCS(0))
	modes := []struct {
		name string
		run  func() float64
	}{
		{"full-batch chain (1 worker)", func() float64 { return timeFullBatchChain(batchSize, 1) }},
		{"full-batch chain (worker pool)", func() float64 { return timeFullBatchChain(batchSize, 0) }},
		{"pipelined (worker pool + streaming chunks + prepared noise)", func() float64 { return timePipelinedRound(batchSize, 0) }},
	}
	var base float64
	for i, mode := range modes {
		elapsed := mode.run()
		if i == 0 {
			base = elapsed
		}
		fmt.Printf("%-60s %8.3f s   %6.2fx\n", mode.name, elapsed, base/elapsed)
	}
	fmt.Println("\n(speedups require multiple cores; on one core the modes should tie)")
}

// chainForwardCompare measures the data-plane refactor over real TCP: a
// 3-daemon chain driven (a) with the coordinator relaying every server's
// output and (b) with the servers forwarding to each other and publishing
// to the CDN directly. For each mode it reports the round's wall time and
// the bytes that crossed the coordinator's mixer connections — the
// quantity the chain-forward refactor takes off the coordinator.
func chainForwardCompare(batchSize int) {
	header("Data plane: coordinator-relayed vs chain-forwarded (3 mixer daemons over TCP)")
	fmt.Printf("dialing, batch %d, GOMAXPROCS %d\n\n", batchSize, runtime.GOMAXPROCS(0))

	runMode := func(forward bool) (elapsed float64, coordBytes uint64, published bool) {
		nz := noise.Laplace{Mu: 2, B: 0}
		var clients []*rpc.MixerClient
		var servers []*rpc.Server
		defer func() {
			for _, s := range servers {
				s.Close()
			}
		}()
		for i := 0; i < 3; i++ {
			m, err := mixnet.New(mixnet.Config{
				Name: "m", Position: i, ChainLength: 3,
				AddFriendNoise: &nz, DialingNoise: &nz,
				Parallelism: parallelism,
			})
			if err != nil {
				log.Fatal(err)
			}
			srv := rpc.NewServer()
			rpc.RegisterMixer(srv, m)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				log.Fatal(err)
			}
			servers = append(servers, srv)
			mc, err := rpc.DialMixer(addr)
			if err != nil {
				log.Fatal(err)
			}
			clients = append(clients, mc)
		}
		store := cdn.NewStore(2)
		cdnSrv := rpc.NewServer()
		rpc.RegisterCDN(cdnSrv, store)
		cdnAddr, err := cdnSrv.Listen("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		servers = append(servers, cdnSrv)

		e := entry.New()
		coord := &coordinator.Coordinator{
			Entry: e, CDN: store,
			TargetRequestsPerMailbox: 24000,
			ChainForward:             forward,
			CDNAddr:                  cdnAddr,
		}
		for _, mc := range clients {
			coord.Mixers = append(coord.Mixers, mc)
		}
		coord.SetExpectedVolume(wire.Dialing, batchSize)
		settings, err := coord.OpenDialingRound(1)
		if err != nil {
			log.Fatal(err)
		}
		batch, err := sim.GenerateBatch(nil, settings, sim.Workload{
			Real: batchSize / 20, Cover: batchSize - batchSize/20,
		})
		if err != nil {
			log.Fatal(err)
		}
		for _, onion := range batch {
			if err := e.Submit(wire.Dialing, 1, onion); err != nil {
				log.Fatal(err)
			}
		}
		before := uint64(0)
		for _, mc := range clients {
			st := mc.TransportStats()
			before += st.BytesSent + st.BytesReceived
		}
		start := time.Now()
		if _, err := coord.CloseRound(wire.Dialing, 1); err != nil {
			log.Fatal(err)
		}
		after := uint64(0)
		for _, mc := range clients {
			st := mc.TransportStats()
			after += st.BytesSent + st.BytesReceived
		}
		return time.Since(start).Seconds(), after - before, store.Published(wire.Dialing, 1)
	}

	modes := []struct {
		name    string
		forward bool
	}{
		{"coordinator-relayed (batch crosses coordinator per hop)", false},
		{"chain-forwarded (servers push to successors + CDN)", true},
	}
	for _, mode := range modes {
		elapsed, coordBytes, published := runMode(mode.forward)
		status := "ok"
		if !published {
			status = "NOT PUBLISHED"
		}
		fmt.Printf("%-58s %8.3f s   %10.2f MB coordinator traffic   %s\n",
			mode.name, elapsed, float64(coordBytes)/1e6, status)
	}
	fmt.Println("\n(chain-forward moves the per-hop batch traffic off the coordinator;")
	fmt.Println(" the remaining coordinator bytes are the entry batch to mixer 0 plus control)")
}

// shardCompare measures intra-round mixer sharding over real TCP: the
// same dialing round run through (a) three unsharded daemons and (b)
// three positions each sharded across two daemons (six total). Sharding
// splits each position's onion peeling and noise generation across
// machines, at the cost of an intra-group merge hop before the
// position's full-batch shuffle; on a single box the win is bounded by
// core count, so this experiment primarily records the TRAJECTORY (and
// proves the sharded plane end-to-end) — the -json record is uploaded
// per PR by CI.
func shardCompare(batchSize int) {
	header("Shard groups: one position per machine vs two machines per position (over TCP)")
	fmt.Printf("dialing, batch %d, GOMAXPROCS %d\n\n", batchSize, runtime.GOMAXPROCS(0))

	type modeResult struct {
		Name        string  `json:"name"`
		ShardsPer   int     `json:"shards_per_position"`
		Seconds     float64 `json:"seconds"`
		CoordMB     float64 `json:"coordinator_mb"`
		Published   bool    `json:"published"`
		MergeShards int     `json:"daemons_total"`
	}

	runMode := func(shardsPerPos int) modeResult {
		const positions = 3
		nz := noise.Laplace{Mu: 2, B: 0}
		var servers []*rpc.Server
		defer func() {
			for _, s := range servers {
				s.Close()
			}
		}()
		leads := make([]*rpc.MixerClient, 0, positions)
		extras := make([][]coordinator.Mixer, positions)
		var all []*rpc.MixerClient
		for i := 0; i < positions; i++ {
			for s := 0; s < shardsPerPos; s++ {
				cfg := mixnet.Config{
					Name: "m", Position: i, ChainLength: positions,
					AddFriendNoise: &nz, DialingNoise: &nz,
					Parallelism: parallelism,
				}
				if shardsPerPos > 1 {
					cfg.ShardIndex, cfg.ShardCount = s, shardsPerPos
				}
				m, err := mixnet.New(cfg)
				if err != nil {
					log.Fatal(err)
				}
				srv := rpc.NewServer()
				rpc.RegisterMixer(srv, m)
				addr, err := srv.Listen("127.0.0.1:0")
				if err != nil {
					log.Fatal(err)
				}
				servers = append(servers, srv)
				mc, err := rpc.DialMixer(addr)
				if err != nil {
					log.Fatal(err)
				}
				all = append(all, mc)
				if s == 0 {
					leads = append(leads, mc)
				} else {
					extras[i] = append(extras[i], mc)
				}
			}
		}
		store := cdn.NewStore(2)
		cdnSrv := rpc.NewServer()
		rpc.RegisterCDN(cdnSrv, store)
		cdnAddr, err := cdnSrv.Listen("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		servers = append(servers, cdnSrv)

		e := entry.New()
		coord := &coordinator.Coordinator{
			Entry: e, CDN: store,
			TargetRequestsPerMailbox: 24000,
			ChainForward:             true,
			CDNAddr:                  cdnAddr,
			Shards:                   extras,
		}
		for _, mc := range leads {
			coord.Mixers = append(coord.Mixers, mc)
		}
		coord.SetExpectedVolume(wire.Dialing, batchSize)
		settings, err := coord.OpenDialingRound(1)
		if err != nil {
			log.Fatal(err)
		}
		batch, err := sim.GenerateBatch(nil, settings, sim.Workload{
			Real: batchSize / 20, Cover: batchSize - batchSize/20,
		})
		if err != nil {
			log.Fatal(err)
		}
		for _, onion := range batch {
			if err := e.Submit(wire.Dialing, 1, onion); err != nil {
				log.Fatal(err)
			}
		}
		before := uint64(0)
		for _, mc := range all {
			st := mc.TransportStats()
			before += st.BytesSent + st.BytesReceived
		}
		start := time.Now()
		if _, err := coord.CloseRound(wire.Dialing, 1); err != nil {
			log.Fatal(err)
		}
		after := uint64(0)
		for _, mc := range all {
			st := mc.TransportStats()
			after += st.BytesSent + st.BytesReceived
		}
		name := "unsharded (1 daemon per position)"
		if shardsPerPos > 1 {
			name = fmt.Sprintf("sharded (%d daemons per position)", shardsPerPos)
		}
		return modeResult{
			Name:        name,
			ShardsPer:   shardsPerPos,
			Seconds:     time.Since(start).Seconds(),
			CoordMB:     float64(after-before) / 1e6,
			Published:   store.Published(wire.Dialing, 1),
			MergeShards: positions * shardsPerPos,
		}
	}

	var results []modeResult
	for _, shardsPerPos := range []int{1, 2} {
		r := runMode(shardsPerPos)
		status := "ok"
		if !r.Published {
			status = "NOT PUBLISHED"
		}
		fmt.Printf("%-44s %8.3f s   %8.2f MB coordinator traffic   %s\n", r.Name, r.Seconds, r.CoordMB, status)
		results = append(results, r)
	}
	fmt.Println("\n(each position's peel + noise splits across its shards; the position's")
	fmt.Println(" permutation stays one full-batch shuffle, run at the group's merge)")

	writeJSONRecord("shard-compare", struct {
		Experiment string       `json:"experiment"`
		Batch      int          `json:"batch"`
		GoMaxProcs int          `json:"gomaxprocs"`
		Modes      []modeResult `json:"modes"`
	}{"shard-compare", batchSize, runtime.GOMAXPROCS(0), results})
}

// fanoutLoad measures the entry tier's fan-out core at waiter scale and the
// per-client tracking request load of the event stream. Two parts:
//
//  1. Waiter scale, in-process: register 10k-100k Waiters on one entry
//     server and announce rounds. The goroutine count must stay FLAT —
//     one fan-out walker regardless of waiter count — and the wall cost
//     per announcement (append + coalesced wake walk) stays small. This
//     is the mechanism behind the paper's many-connections entry tier:
//     tracked clients cost a cursor and a 1-slot channel, not a parked
//     goroutine each.
//  2. Tracking requests, over TCP: N clients follow M dialing rounds
//     through Client.Run. Settings ride inside the open event, so a round
//     costs zero entry.settings fetches; what remains is the parked
//     entry.events calls.
func fanoutLoad() {
	header("Event fan-out: waiter scale (in-process)")

	type scalePoint struct {
		Waiters         int     `json:"waiters"`
		ExtraGoroutines int     `json:"extra_goroutines"`
		NsPerEvent      float64 `json:"ns_per_event"`
	}
	const announceRounds = 50 // x2 events each (open + published)
	var scale []scalePoint
	for _, n := range []int{10_000, 50_000, 100_000} {
		runtime.GC()
		base := runtime.NumGoroutine()
		e := entry.New()
		waiters := make([]*entry.Waiter, n)
		for i := range waiters {
			waiters[i] = e.Register(0)
		}
		// Sentinel: a waiter that actually consumes, to observe the walk.
		sentinel := e.Register(0)
		after := runtime.NumGoroutine()

		start := time.Now()
		var head uint64
		for r := uint32(1); r <= announceRounds; r++ {
			settings := &wire.RoundSettings{
				Service:      wire.Dialing,
				Round:        r,
				NumMailboxes: 1,
				Mixers: []wire.MixerRoundKey{
					{OnionKey: make([]byte, 32), Sig: make([]byte, 64)},
				},
			}
			if err := e.OpenRound(settings); err != nil {
				log.Fatal(err)
			}
			e.AnnouncePublished(wire.Dialing, r)
		}
		// Wait until the sentinel has seen the final announcement, so the
		// timing includes the wake walks (back-to-back announcements
		// coalesce into few walks — that is the design, not a shortcut).
		syncCtx, syncCancel := context.WithTimeout(context.Background(), 30*time.Second)
		for head < uint64(2*announceRounds) {
			events, next, _ := sentinel.Await(syncCtx, 0)
			if len(events) == 0 {
				log.Fatalf("fan-out walk never reached the sentinel (cursor %d)", next)
			}
			head = next
		}
		syncCancel()
		elapsed := time.Since(start)

		sentinel.Close()
		for _, w := range waiters {
			w.Close()
		}
		p := scalePoint{
			Waiters:         n,
			ExtraGoroutines: after - base,
			NsPerEvent:      float64(elapsed.Nanoseconds()) / float64(2*announceRounds),
		}
		scale = append(scale, p)
		fmt.Printf("%7d waiters: %2d extra goroutines, %8.0f ns/announcement\n",
			p.Waiters, p.ExtraGoroutines, p.NsPerEvent)
	}
	fmt.Println("(goroutine count is flat: one fan-out walker total, zero per waiter)")

	header("Event stream: tracking requests per client per round (over TCP)")
	const (
		numClients    = 4
		numRounds     = 3
		roundInterval = 1500 * time.Millisecond
	)
	fmt.Printf("%d clients, %d dialing rounds, %v per round\n\n", numClients, numRounds, roundInterval)

	type trackingResult struct {
		Clients          int     `json:"clients"`
		Rounds           int     `json:"rounds"`
		Tracking         uint64  `json:"tracking_requests"`
		SettingsFetches  uint64  `json:"settings_fetches"`
		Requests         uint64  `json:"frontend_requests"`
		PerClientRate    float64 `json:"tracking_per_client_per_round"`
		ServerGoroutines int     `json:"server_goroutines"`
	}

	network, err := sim.NewNetwork(sim.Config{NumPKGs: 1, NumMixers: 1})
	if err != nil {
		log.Fatal(err)
	}
	srv := rpc.NewServer()
	rpc.RegisterFrontend(srv, network.Entry, network.CDN, rpc.Directory{NumMixers: 1})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var frontends []*rpc.FrontendClient
	for i := 0; i < numClients; i++ {
		fe := rpc.DialFrontend(addr)
		frontends = append(frontends, fe)
		h := &sim.Handler{AcceptAll: true}
		cfg := network.ClientConfig(fmt.Sprintf("user%d@bench.example", i), h)
		cfg.Entry = fe
		cfg.Mailboxes = fe
		client, err := core.NewClient(cfg)
		if err != nil {
			log.Fatal(err)
		}
		if err := client.Register(ctx); err != nil {
			log.Fatal(err)
		}
		if err := network.ConfirmAll(client); err != nil {
			log.Fatal(err)
		}
		handle, err := client.ConnectDialing(ctx)
		if err != nil {
			log.Fatal(err)
		}
		defer handle.Close()
	}

	goroutines := 0
	for r := uint32(1); r <= numRounds; r++ {
		start := time.Now()
		if _, err := network.Coord.OpenDialingRound(r); err != nil {
			log.Fatal(err)
		}
		for network.Entry.BatchSize(wire.Dialing, r) < numClients && time.Since(start) < 10*time.Second {
			time.Sleep(2 * time.Millisecond)
		}
		if r == 1 {
			// Steady state: every client submitted and is parked on its
			// event stream. One long-poll handler per connection plus
			// ONE fan-out walker, however many clients are tracked.
			goroutines = runtime.NumGoroutine()
		}
		if remaining := roundInterval - time.Since(start); remaining > 0 {
			time.Sleep(remaining)
		}
		if _, err := network.Coord.CloseRound(wire.Dialing, r); err != nil {
			log.Fatal(err)
		}
	}
	// Let the final scans land before counting.
	time.Sleep(300 * time.Millisecond)
	cancel()

	res := trackingResult{Clients: numClients, Rounds: numRounds, ServerGoroutines: goroutines}
	for _, fe := range frontends {
		res.SettingsFetches += fe.CallCount("entry.settings")
		res.Tracking += fe.CallCount("entry.events") + fe.CallCount("entry.settings")
		res.Requests += fe.TransportStats().Calls
		fe.Close()
	}
	res.PerClientRate = float64(res.Tracking) / float64(numClients) / float64(numRounds)
	fmt.Printf("%5d tracking req  %4d settings fetches  %5d total req  %3d goroutines  (%.1f tracking req/client/round)\n",
		res.Tracking, res.SettingsFetches, res.Requests, res.ServerGoroutines, res.PerClientRate)
	fmt.Println("(an idle streaming client costs one parked entry.events call per 25 s)")

	writeJSONRecord("fanout-load", struct {
		Experiment string         `json:"experiment"`
		Scale      []scalePoint   `json:"waiter_scale"`
		Tracking   trackingResult `json:"tracking"`
	}{"fanout-load", scale, res})
}

// measureIBEDecrypt returns seconds per trial decryption with our pairing,
// on the scan configuration clients actually run — the v2 (optimal-ate)
// tier's DecryptBatchV2 over a mailbox chunk with the key's evaluation
// coordinates precomputed and shared batch inversions — the shape the
// IBEDecryptSeconds calibration extrapolates.
func measureIBEDecrypt() float64 {
	pub, priv, err := ibe.Setup(rand.Reader)
	if err != nil {
		log.Fatal(err)
	}
	key := ibe.Extract(priv, "bob@example.org").PrecomputeV2()
	const batch = 16
	ctxts := make([][]byte, batch)
	for i := 1; i < batch; i++ {
		c, err := ibe.RandomCiphertext(rand.Reader, wire.FriendRequestSize)
		if err != nil {
			log.Fatal(err)
		}
		ctxts[i] = c
	}
	ctxts[0], err = ibe.EncryptV2(rand.Reader, pub, "bob@example.org", make([]byte, wire.FriendRequestSize))
	if err != nil {
		log.Fatal(err)
	}
	if _, oks := ibe.DecryptBatchV2(key, ctxts); !oks[0] { // also warms the scratch pool
		log.Fatal("v2 decrypt failed")
	}
	start := time.Now()
	const reps = 10
	for i := 0; i < reps; i++ {
		ibe.DecryptBatchV2(key, ctxts)
	}
	return time.Since(start).Seconds() / (reps * batch)
}

func latencyTable(title string, latency func(p model.Params, c model.CostCalibration) float64, batch int) {
	header(title)
	mixCost := measureMixCost(batch)
	ibeCost := measureIBEDecrypt()
	fmt.Printf("calibration: mix %.2f µs/msg/server (measured, batch %d); IBE decrypt %.1f ms (measured)\n\n",
		mixCost*1e6, batch, ibeCost*1e3)

	ours := model.PaperCalibration()
	ours.MixSecondsPerMessage = mixCost
	ours.IBEDecryptSeconds = ibeCost
	paper := model.PaperCalibration()

	usersList := []float64{1e4, 1e5, 1e6, 1e7}
	for _, cal := range []struct {
		name string
		c    model.CostCalibration
	}{{"ours (Montgomery-limb pairing)", ours}, {"paper-calibrated (assembly costs)", paper}} {
		fmt.Printf("%s:\n%-10s %12s %12s %12s\n", cal.name, "users", "3 srv (s)", "5 srv (s)", "10 srv (s)")
		for _, u := range usersList {
			fmt.Printf("%-10.0g", u)
			for _, s := range []float64{3, 5, 10} {
				fmt.Printf(" %12.1f", latency(model.PaperParams(u, s), cal.c))
			}
			fmt.Println()
		}
		fmt.Println()
	}
}

// fig8 prints Figure 8: add-friend round latency.
func fig8(batch int) {
	latencyTable("Figure 8: AddFriend latency vs online users",
		func(p model.Params, c model.CostCalibration) float64 { return p.AddFriendLatency(c) }, batch)
	fmt.Println("(paper measured: 152 s at 10M users, 3 servers)")
}

// fig9 prints Figure 9: dialing round latency.
func fig9(batch int) {
	latencyTable("Figure 9: Call latency vs online users",
		func(p model.Params, c model.CostCalibration) float64 { return p.DialingLatency(c, 1000, 10) }, batch)
	fmt.Println("(paper measured: 118 s at 10M users, 3 servers)")
}

// fig10 prints Figure 10: latency under Zipf-skewed recipient popularity,
// and the §8.4 mailbox-size table.
func fig10(int) {
	header("Figure 10: AddFriend latency under Zipf skew (1M users, 3 servers)")
	const users = 1000000
	requests := users / 20
	p := model.PaperParams(users, 3)
	mb := p.AddFriendMailboxModel()
	k := int(mb.NumMailboxes)
	cal := model.PaperCalibration()

	fmt.Printf("%-8s %10s %10s %10s %14s %14s %10s\n",
		"skew s", "min(s)", "median(s)", "max(s)", "minbox(MB)", "maxbox(MB)", "top10(%)")
	for _, s := range []float64{0, 0.5, 1, 1.5, 2} {
		z := model.NewZipf(users, s)
		counts, err := z.MailboxLoad(rand.Reader, requests, k)
		if err != nil {
			log.Fatal(err)
		}
		sort.Ints(counts)
		// Per-user latency varies with the size of THEIR mailbox:
		// download + scan dominate the per-user part.
		lat := func(realInBox int) float64 {
			tot := float64(realInBox) + mb.NoiseRequests
			bytes := tot * float64(wire.EncryptedFriendRequestSize)
			base := p.AddFriendLatency(cal)
			defaultBox := mb.RealRequests + mb.NoiseRequests
			delta := (tot-defaultBox)*cal.IBEDecryptSeconds/cal.ScanCores +
				(bytes-defaultBox*float64(wire.EncryptedFriendRequestSize))/cal.DownloadBytesPerSecond
			return base + delta
		}
		minBox := (float64(counts[0]) + mb.NoiseRequests) * float64(wire.EncryptedFriendRequestSize) / 1e6
		maxBox := (float64(counts[len(counts)-1]) + mb.NoiseRequests) * float64(wire.EncryptedFriendRequestSize) / 1e6
		fmt.Printf("%-8.1f %10.1f %10.1f %10.1f %14.2f %14.2f %10.1f\n",
			s, lat(counts[0]), lat(counts[len(counts)/2]), lat(counts[len(counts)-1]),
			minBox, maxBox, z.TopShare(10)*100)
	}
	fmt.Println("\n(paper: median flat; max grows, min shrinks; at s=2 largest mailbox")
	fmt.Println(" 14.95 MB / smallest 4.15 MB at 308 B/request; top-10 share 94.2%)")
}

// sizes prints the T5 message-size table.
func sizes() {
	header("Message sizes: this implementation vs paper")
	rows := []struct {
		name        string
		ours, paper int
	}{
		{"friend request plaintext", wire.FriendRequestSize, 244},
		{"IBE ciphertext overhead", ibe.Overhead, 64},
		{"encrypted friend request", wire.EncryptedFriendRequestSize, 308},
		{"dial token", keywheel.TokenSize, 32},
		{"add-friend onion (3 hops)", wire.OnionSize(wire.AddFriend, 3), -1},
		{"dialing onion (3 hops)", wire.OnionSize(wire.Dialing, 3), -1},
	}
	fmt.Printf("%-28s %10s %10s\n", "message", "ours (B)", "paper (B)")
	for _, r := range rows {
		paper := "-"
		if r.paper >= 0 {
			paper = fmt.Sprintf("%d", r.paper)
		}
		fmt.Printf("%-28s %10d %10s\n", r.name, r.ours, paper)
	}
	fmt.Println("\n(difference: uncompressed BN254 group elements — 128 B G2 points vs the")
	fmt.Println(" paper's 64 B compressed BN-256; counts and protocol structure identical)")
}

// extraction measures T3: combined key-extraction latency vs #PKGs.
func extraction() {
	header("Key extraction latency vs number of PKGs (paper T3: 4.9 ms @3, 5.2 ms @10)")
	for _, n := range []int{1, 3, 5, 10} {
		net, err := sim.NewNetwork(sim.Config{NumPKGs: n, NumMixers: 1})
		if err != nil {
			log.Fatal(err)
		}
		h := &sim.Handler{AcceptAll: true}
		client, err := net.NewClient("bench@example.org", h)
		if err != nil {
			log.Fatal(err)
		}
		const rounds = 5
		var total time.Duration
		for r := uint32(1); r <= rounds; r++ {
			if _, err := net.Coord.OpenAddFriendRound(r); err != nil {
				log.Fatal(err)
			}
			start := time.Now()
			if err := client.SubmitAddFriendRound(context.Background(), r); err != nil {
				log.Fatal(err)
			}
			total += time.Since(start)
		}
		fmt.Printf("%2d PKGs: %7.1f ms per round (extraction + attestation verify + submit)\n",
			n, float64(total.Milliseconds())/rounds)
	}
	fmt.Println("(ours includes BLS attestation verification with big.Int pairings;")
	fmt.Println(" the paper's 5 ms figure is network-latency dominated)")
}

// ibeSweep measures T8 (§8.6): per-operation IBE costs.
func ibeSweep() {
	header("IBE cost sweep (§8.6): per-operation costs of this substrate")
	pub, priv, err := ibe.Setup(rand.Reader)
	if err != nil {
		log.Fatal(err)
	}
	msg := make([]byte, wire.FriendRequestSize)

	const reps = 3
	start := time.Now()
	var ctxt []byte
	for i := 0; i < reps; i++ {
		ctxt, err = ibe.Encrypt(rand.Reader, pub, "bob@x.org", msg)
		if err != nil {
			log.Fatal(err)
		}
	}
	encT := time.Since(start) / reps

	start = time.Now()
	var key *ibe.IdentityPrivateKey
	for i := 0; i < reps; i++ {
		key = ibe.Extract(priv, "bob@x.org")
	}
	extT := time.Since(start) / reps

	start = time.Now()
	for i := 0; i < reps; i++ {
		if _, ok := ibe.Decrypt(key, ctxt); !ok {
			log.Fatal("decrypt failed")
		}
	}
	decT := time.Since(start) / reps

	fmt.Printf("encrypt: %8.1f ms   (pairing + G2 scalar mult + G1 scalar mult)\n", float64(encT.Microseconds())/1000)
	fmt.Printf("extract: %8.1f ms   (hash-to-G1 + G1 scalar mult)\n", float64(extT.Microseconds())/1000)
	fmt.Printf("decrypt: %8.1f ms   (one pairing; paper: 1.25 ms = 800/sec/core)\n", float64(decT.Microseconds())/1000)
	fmt.Printf("\nPKG extraction throughput: %.0f/sec/core (paper: 4310/sec on 36 cores)\n",
		1/extT.Seconds())
	fmt.Println("All Alpenhorn costs scale linearly in these three numbers (§8.6).")
}
