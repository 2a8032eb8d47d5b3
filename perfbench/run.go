package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"alpenhorn/internal/wire"
)

type config struct {
	workload string
	seed     int64
	seconds  float64 // timed phase length; rounds > 0 overrides it
	rounds   int
	trace    bool
	traceOut string // span dump for traced runs ("" = none)
	dataDir  string // scratch space for disk-backed CDN nodes
	setups   int    // fleets built to time setup; the last one is measured
	fault    fault
}

type metric struct {
	name  string
	value float64
	unit  string
}

// roundCounts is the work one round did, which must not depend on
// timing or tracing.
type roundCounts struct {
	Batch     int
	Noise     uint64
	Extracted uint64
	Mailboxes []int
	Scanned   int
}

type result struct {
	attempted, failed int
	failures          []string
	metrics           []metric
	info              []string
	counts            []roundCounts
}

// run builds the workload's fleet cfg.setups times, keeps the last one,
// and runs closed-loop rounds on it.
func run(cfg config) (*result, error) {
	s, ok := specs[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	workers := runtime.NumCPU()
	if s.maxWorkers > 0 && s.maxWorkers < workers {
		workers = s.maxWorkers
	}
	h := newHarness()
	h.fault = cfg.fault
	var setupTimes []float64
	var f *fleet
	var d *driver
	defer func() {
		if f != nil {
			f.close()
		}
	}()
	for i := 0; i < cfg.setups; i++ {
		dir := filepath.Join(cfg.dataDir, fmt.Sprintf("fleet%d", i))
		start := time.Now()
		var err error
		f, err = startFleet(s, workers, dir)
		if err != nil {
			return nil, fmt.Errorf("starting fleet: %w", err)
		}
		if err := f.addClients(h); err != nil {
			return nil, err
		}
		d = newDriver(f, h, cfg.seed)
		d.warmUp()
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		if i < cfg.setups-1 {
			f.close()
			f = nil
			os.RemoveAll(dir)
		}
	}

	tr := &tracer{}
	var plain, traced []*roundSample
	var counts []roundCounts
	start := time.Now()
	for n := 0; ; n++ {
		if cfg.rounds > 0 && n >= cfg.rounds {
			break
		}
		if cfg.rounds == 0 && n >= 2 && time.Since(start).Seconds() >= cfg.seconds {
			break
		}
		// A traced run alternates traced and untraced rounds, so the
		// tracing overhead is measured against neighbouring rounds.
		on := cfg.trace && n%2 == 1
		h.tr = nil
		if on {
			h.tr = tr
		}
		smp := d.timedRound()
		h.tr = nil
		if smp == nil {
			break
		}
		counts = append(counts, smp.counts())
		if on {
			traced = append(traced, smp)
		} else {
			plain = append(plain, smp)
		}
	}
	d.drain()
	if len(plain) == 0 {
		return nil, fmt.Errorf("no round completed: %v", h.failures)
	}

	res := &result{attempted: h.attempted, failed: h.failed, failures: h.failures, counts: counts}
	res.info = []string{
		fmt.Sprintf("workload %s seed %d gomaxprocs %d nproc %d client-workers %d", s.name, cfg.seed, runtime.GOMAXPROCS(0), runtime.NumCPU(), workers),
		"fleet: " + s.layout(),
		"loop: closed; per round: open, every client submits, close, every client fetches and scanning clients scan",
		fmt.Sprintf("rounds: %d untraced, %d traced; setups: %s s", len(plain), len(traced), joinFloats(setupTimes)),
	}
	if cfg.trace {
		if len(traced) == 0 {
			return nil, fmt.Errorf("traced run finished no traced round: %v", h.failures)
		}
		res.metrics = layerMetrics(s, traced, plain, tr.snapshot(), h)
		if cfg.traceOut != "" {
			if err := tr.writeFile(cfg.traceOut); err != nil {
				return nil, fmt.Errorf("writing spans: %w", err)
			}
		}
	} else {
		res.metrics = endToEndMetrics(s, plain, setupTimes, h)
	}
	return res, nil
}

// warmUp runs the untimed rounds that let registration, friendships, the
// keywheel start round, lazy tables and connections settle.
func (d *driver) warmUp() {
	if d.s.service == wire.AddFriend {
		d.addFriendRound(d.pickPairs())
		return
	}
	d.befriendRing()
	// New keywheels start DialRoundDelta (2) rounds past the clients'
	// last scanned dialing round, so the first round carries no calls.
	d.dialingRound(false)
	d.dialingRound(true)
}

func (d *driver) timedRound() *roundSample {
	if d.s.service == wire.AddFriend {
		return d.addFriendRound(d.pickPairs())
	}
	return d.dialingRound(true)
}

// drain lets the last timed add-friend round's requests confirm; the
// round is checked but not measured.
func (d *driver) drain() {
	if d.s.service == wire.AddFriend {
		d.addFriendRound(nil)
	}
}

func (s *roundSample) counts() roundCounts {
	return roundCounts{Batch: s.batch, Noise: s.noise, Extracted: s.extracted, Mailboxes: s.want, Scanned: s.scanned}
}

func endToEndMetrics(s spec, smps []*roundSample, setupTimes []float64, h *harness) []metric {
	var rounds, delivers, submits []float64
	var clientB, serverB float64
	for _, smp := range smps {
		rounds = append(rounds, smp.ready[0].Seconds())
		for _, d := range smp.delivers {
			delivers = append(delivers, d.Seconds())
		}
		for _, d := range smp.submits {
			submits = append(submits, float64(d)/1e6)
		}
		clientB += float64(smp.clientB)
		serverB += float64(smp.feed)
		for _, dm := range smp.daemons {
			serverB += float64(dm.Stats.BytesIn + dm.Stats.BytesOut)
		}
	}
	n := float64(len(smps))
	return []metric{
		{"setup_s", median(setupTimes), "s"},
		{"round_p50_s", median(rounds), "s"},
		{"deliver_p50_s", percentile(delivers, 50), "s"},
		{"deliver_p90_s", percentile(delivers, 90), "s"},
		{"submit_p50_ms", percentile(submits, 50), "ms"},
		{"submit_p95_ms", percentile(submits, 95), "ms"},
		{"client_kb_per_round", clientB / n / float64(s.clients) / 1e3, "KB"},
		{"server_mb_per_round", serverB / n / 1e6, "MB"},
		{"max_rss_mb", maxRSSMB(), "MB"},
		{"success_frac", float64(h.attempted-h.failed) / float64(h.attempted), "ratio"},
	}
}

// layerMetrics computes the per-layer metrics from the traced rounds and
// their spans; plain holds the interleaved untraced rounds.
func layerMetrics(s spec, traced, plain []*roundSample, spans []span, h *harness) []metric {
	self := selfTimes(spans)
	byName := make(map[string][]float64)
	selfByName := make(map[string][]float64)
	for _, sp := range spans {
		byName[sp.Name] = append(byName[sp.Name], float64(sp.dur())/1e6)
		selfByName[sp.Name] = append(selfByName[sp.Name], float64(self[sp.ID])/1e6)
	}
	n := float64(len(traced))
	var opens, closeOver, feed, extracted, batch, noise, gen, calls, lag, skew, cyclesT, cyclesP []float64
	busy := make([][]float64, s.positions)
	mbIn := make([]float64, s.positions)
	mbOut := make([]float64, s.positions)
	var hopBytes, hopOnions float64
	var scanned int
	for _, smp := range traced {
		opens = append(opens, float64(smp.open)/1e6)
		feed = append(feed, float64(smp.feed)/1e6)
		extracted = append(extracted, float64(smp.extracted))
		batch = append(batch, float64(smp.batch))
		noise = append(noise, float64(smp.noise))
		gen = append(gen, smp.generate.Seconds())
		calls = append(calls, float64(smp.calls)/float64(s.clients))
		lag = append(lag, float64(smp.ready[len(smp.ready)-1]-smp.ready[0])/1e6)
		cyclesT = append(cyclesT, smp.cycle.Seconds())
		scanned += smp.scanned
		var slowest time.Duration
		posMax := make([]time.Duration, s.positions)
		posSum := make([]time.Duration, s.positions)
		posN := make([]int, s.positions)
		for _, dm := range smp.daemons {
			p := dm.Position
			if dm.Stats.Duration > slowest {
				slowest = dm.Stats.Duration
			}
			if dm.Stats.Duration > posMax[p] {
				posMax[p] = dm.Stats.Duration
			}
			posSum[p] += dm.Stats.Duration
			posN[p]++
			mbIn[p] += float64(dm.Stats.BytesIn) / 1e6 / n
			mbOut[p] += float64(dm.Stats.BytesOut) / 1e6 / n
			hopBytes += float64(dm.Stats.BytesIn)
		}
		hopOnions += float64(smp.onionsIn)
		closeOver = append(closeOver, float64(smp.close-slowest)/1e6)
		worst := 0.0
		for p := range posMax {
			busy[p] = append(busy[p], float64(posMax[p])/1e6)
			if posN[p] > 0 && posSum[p] > 0 {
				if r := float64(posMax[p]) / (float64(posSum[p]) / float64(posN[p])); r > worst {
					worst = r
				}
			}
		}
		skew = append(skew, worst)
	}
	for _, smp := range plain {
		cyclesP = append(cyclesP, smp.cycle.Seconds())
	}

	scanSelf, dialScanSelf, scanPerReq := 0.0, 0.0, 0.0
	if s.service == wire.AddFriend {
		scanSelf = median(selfByName["client.scan"])
		if scanned > 0 {
			scanPerReq = sum(selfByName["client.scan"]) * 1e3 / float64(scanned)
		}
	} else {
		dialScanSelf = median(selfByName["client.scan"])
	}
	fetches, fetchBytes := h.fetchStats()
	mailboxKB := 0.0
	if fetches > 0 {
		mailboxKB = float64(fetchBytes) / float64(fetches) / 1e3
	}
	overhead := 0.0
	if len(cyclesP) > 0 {
		overhead = (median(cyclesT)/median(cyclesP) - 1) * 100
	}

	ms := []metric{
		{"core.submit_self_ms", median(selfByName["client.submit"]), "ms"},
		{"core.scan_self_ms", scanSelf, "ms"},
		{"core.scan_us_per_request", scanPerReq, "us"},
		{"core.dial_scan_self_ms", dialScanSelf, "ms"},
		{"pkgserver.extract_ms", median(byName["pkg.extract"]), "ms"},
		{"pkgserver.extractions_per_round", mean(extracted), "count"},
		{"entry.settings_ms", median(byName["entry.settings"]), "ms"},
		{"entry.submit_ms", median(byName["entry.submit"]), "ms"},
		{"entry.batch", mean(batch), "count"},
		{"coordinator.open_ms", median(opens), "ms"},
		{"coordinator.close_overhead_ms", median(closeOver), "ms"},
		{"coordinator.feed_mb", mean(feed), "MB"},
	}
	for p := 0; p < s.positions; p++ {
		ms = append(ms,
			metric{fmt.Sprintf("mixnet.pos%d.busy_ms", p), median(busy[p]), "ms"},
			metric{fmt.Sprintf("mixnet.pos%d.mb_in", p), mbIn[p], "MB"},
			metric{fmt.Sprintf("mixnet.pos%d.mb_out", p), mbOut[p], "MB"})
	}
	ms = append(ms,
		metric{"mixnet.bytes_per_onion_hop", hopBytes / hopOnions, "B"},
		metric{"mixnet.shard_skew", median(skew), "ratio"},
		metric{"mixnet.noise_per_round", mean(noise), "count"},
		metric{"rpc.client_calls_per_round", mean(calls), "count"},
		metric{"cdn.fetch_ms", median(byName["cdn.fetch"]), "ms"},
		metric{"cdn.mailbox_kb", mailboxKB, "KB"},
		metric{"cdn.replicate_lag_ms", median(lag), "ms"},
		metric{"sim.generate_s", mean(gen), "s"},
	)
	layers := []struct {
		name  string
		spans []string
	}{
		{"round", []string{"round"}},
		{"client", []string{"client.submit", "client.scan"}},
		{"pkg", []string{"pkg.extract"}},
		{"entry", []string{"entry.settings", "entry.submit"}},
		{"coordinator", []string{"coordinator.open", "coordinator.close"}},
		{"cdn", []string{"cdn.fetch", "cdn.replicate"}},
		{"sim", []string{"sim.generate"}},
	}
	for _, l := range layers {
		total := 0.0
		for _, name := range l.spans {
			total += sum(selfByName[name])
		}
		ms = append(ms, metric{"self." + l.name + "_ms_per_round", total / n, "ms"})
	}
	ms = append(ms, metric{"trace.overhead_pct", overhead, "%"})
	return ms
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile interpolates linearly between the closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// maxRSSMB reads the process's peak resident set (VmHWM) in MB.
func maxRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				kb, err := strconv.ParseFloat(fields[1], 64)
				if err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	return 0
}

func joinFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.Join(parts, " ")
}
