package main

import (
	"crypto/rand"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"runtime"
	"sync"
	"time"

	"alpenhorn/internal/bls"
	"alpenhorn/internal/bn254"
	"alpenhorn/internal/ibe"
	"alpenhorn/internal/wire"
)

// ibeBenchRecord is the -json record of the ibe-bench experiment. The
// *_speedup fields are machine-independent ratios (both sides measured
// back-to-back on the same box), which is what the committed BENCH_ibe.json
// baseline pins: CI compares a fresh run's ratios against the baseline's
// and fails on >30% regression, without being fooled by runner speed.
type ibeBenchRecord struct {
	Experiment          string  `json:"experiment"`
	DecryptsPerSec      float64 `json:"decrypts_per_sec"`
	BatchDecryptsPerSec float64 `json:"batch_decrypts_per_sec"`
	BatchScanSpeedup    float64 `json:"batch_scan_speedup"`
	// The v2 (optimal-ate) tier rows: batched v2 scan rate, its ratio
	// over the batched v1 scan (the acceptance target is ≥1.8x), and the
	// scalar v2 decrypt rate for reference.
	DecryptsV2PerSec      float64 `json:"decrypts_v2_per_sec"`
	BatchDecryptsV2PerSec float64 `json:"batch_decrypts_v2_per_sec"`
	AteScanSpeedup        float64 `json:"ate_scan_speedup"`
	ExtractionsPerSec     float64 `json:"extractions_per_sec"`
	G1CombPerSec          float64 `json:"g1_comb_mults_per_sec"`
	G1LadderPerSec        float64 `json:"g1_ladder_mults_per_sec"`
	G1CombSpeedup         float64 `json:"g1_comb_speedup"`
	G2CombPerSec          float64 `json:"g2_comb_mults_per_sec"`
	G2LadderPerSec        float64 `json:"g2_ladder_mults_per_sec"`
	G2CombSpeedup         float64 `json:"g2_comb_speedup"`
	Scan24kProjSec        float64 `json:"sec_per_24k_mailbox_scan_4core_proj"`
	Scan24kBatchProjSec   float64 `json:"sec_per_24k_mailbox_scan_batched_4core_proj"`
	Scan24kMeasSec        float64 `json:"sec_per_24k_mailbox_scan_measured"`
	ScanWorkers           int     `json:"scan_workers"`
	// BLS attestation checks (§4.5): the ate Verify against the Tate
	// pairing check it replaced, and the client's per-round k=3 batched
	// share check against three Tate Verify calls.
	BLSVerifyPerSec     float64 `json:"bls_verify_per_sec"`
	BLSVerifyTatePerSec float64 `json:"bls_verify_tate_per_sec"`
	BLSVerifyAteSpeedup float64 `json:"bls_verify_ate_speedup"`
	AttestBatchPerSec   float64 `json:"attest_batch3_per_sec"`
	AttestBatchSpeedup  float64 `json:"attest_batch_speedup"`
}

// scanChunk mirrors core.Client.ScanAddFriendRound's DecryptBatch chunk.
const scanChunk = 32

// ibeBench is the -exp ibe-bench experiment: the paper's T1/T4 crypto
// throughput claims on this substrate's Montgomery-limb pairing. It
// reports single-core decrypts/sec for the per-ciphertext path (paper:
// 800/sec/core on BN-256 assembly) and for the batched scan pipeline
// that clients actually run, fixed-base comb vs generic-ladder
// ScalarBaseMult rates for both groups, PKG extractions/sec (paper:
// 4310/sec on 36 cores), and the time to trial-decrypt a 24,000-request
// add-friend mailbox (paper: 8 s on 4 cores) — projected unbatched,
// projected batched, and measured on a real chunked worker-pool scan.
// With -json the record is uploaded by CI as the BENCH_ibe artifact and
// diffed against the committed baseline (see -baseline).
func ibeBench() {
	header("IBE crypto throughput (T1/T4): comb tables + batched scan pipeline")

	pub, priv, err := ibe.Setup(rand.Reader)
	if err != nil {
		log.Fatal(err)
	}
	msg := make([]byte, wire.FriendRequestSize)
	ctxt, err := ibe.Encrypt(rand.Reader, pub, "bob@example.org", msg)
	if err != nil {
		log.Fatal(err)
	}

	// Single-core trial decryption, scan configuration (precomputed
	// Miller ladder, as core.Client.ScanAddFriendRound uses).
	key := ibe.Extract(priv, "bob@example.org").Precompute()
	decRate := rate(func() {
		if _, ok := ibe.Decrypt(key, ctxt); !ok {
			log.Fatal("decrypt failed")
		}
	})

	// Mailbox of noise with one planted request, for the batched paths.
	const mailboxSize = 96
	mailbox := make([]byte, 0, mailboxSize*wire.EncryptedFriendRequestSize)
	noise, err := ibe.RandomCiphertexts(rand.Reader, wire.FriendRequestSize, mailboxSize-1)
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range noise {
		mailbox = append(mailbox, c...)
	}
	mailbox = append(mailbox, ctxt...)
	chunks := make([][][]byte, 0, (mailboxSize+scanChunk-1)/scanChunk)
	for lo := 0; lo < mailboxSize; lo += scanChunk {
		hi := lo + scanChunk
		if hi > mailboxSize {
			hi = mailboxSize
		}
		ctxts := make([][]byte, 0, hi-lo)
		for i := lo; i < hi; i++ {
			off := i * wire.EncryptedFriendRequestSize
			ctxts = append(ctxts, mailbox[off:off+wire.EncryptedFriendRequestSize])
		}
		chunks = append(chunks, ctxts)
	}

	// Single-core batched scan rate (ciphertexts/sec through DecryptBatch
	// in client-sized chunks).
	batchScanRate := func(scan func(ctxts [][]byte)) float64 {
		chunkIdx := 0
		batchCtxts := 0
		batchStart := time.Now()
		for time.Since(batchStart) < 250*time.Millisecond {
			ctxts := chunks[chunkIdx%len(chunks)]
			chunkIdx++
			scan(ctxts)
			batchCtxts += len(ctxts)
		}
		return float64(batchCtxts) / time.Since(batchStart).Seconds()
	}
	batchRate := batchScanRate(func(ctxts [][]byte) { ibe.DecryptBatch(key, ctxts) })

	// The v2 (optimal-ate) tier on the same mailbox: noise blobs are
	// tier-independent random ciphertexts, and the planted v1 request
	// simply fails v2 authentication like any foreign message — the scan
	// work per ciphertext is identical, so the rates compare directly.
	key.PrecomputeV2()
	ctxtV2, err := ibe.EncryptV2(rand.Reader, pub, "bob@example.org", msg)
	if err != nil {
		log.Fatal(err)
	}
	decV2Rate := rate(func() {
		if _, ok := ibe.DecryptV2(key, ctxtV2); !ok {
			log.Fatal("v2 decrypt failed")
		}
	})
	batchV2Rate := batchScanRate(func(ctxts [][]byte) { ibe.DecryptBatchV2(key, ctxts) })

	// Server-side extraction throughput (hash-to-G1 + G1 scalar mult).
	i := 0
	extRate := rate(func() {
		ibe.Extract(priv, fmt.Sprintf("user%d@example.org", i))
		i++
	})

	// Fixed-base comb tables vs the generic double-and-add ladder.
	k, err := bn254.RandomScalar(rand.Reader)
	if err != nil {
		log.Fatal(err)
	}
	var p1 bn254.G1
	var p2 bn254.G2
	g1CombRate := rate(func() { p1.ScalarBaseMult(k) })
	g1LadderRate := rate(func() { p1.ScalarMult(bn254.G1Generator(), k) })
	g2CombRate := rate(func() { p2.ScalarBaseMult(k) })
	g2LadderRate := rate(func() { p2.ScalarMult(bn254.G2Generator(), k) })

	verifyRate, verifyTateRate, batchRate3 := blsVerifyRates()

	// Real parallel mailbox scan on the chunked worker pool (what
	// ScanAddFriendRound runs), measured end to end.
	workers := runtime.GOMAXPROCS(0)
	start := time.Now()
	var wg sync.WaitGroup
	next := make(chan int, len(chunks))
	for j := range chunks {
		next <- j
	}
	close(next)
	hitsPerChunk := make([]int, len(chunks))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				_, oks := ibe.DecryptBatch(key, chunks[j])
				hitsPerChunk[j] = countTrue(oks)
			}
		}()
	}
	wg.Wait()
	parallelScan := time.Since(start).Seconds()
	hits := 0
	for _, h := range hitsPerChunk {
		hits += h
	}
	if hits != 1 {
		log.Fatalf("ibe-bench: scan found %d of 1 planted requests", hits)
	}

	rec := ibeBenchRecord{
		Experiment:            "ibe-bench",
		DecryptsPerSec:        decRate,
		BatchDecryptsPerSec:   batchRate,
		BatchScanSpeedup:      batchRate / decRate,
		DecryptsV2PerSec:      decV2Rate,
		BatchDecryptsV2PerSec: batchV2Rate,
		AteScanSpeedup:        batchV2Rate / batchRate,
		ExtractionsPerSec:     extRate,
		G1CombPerSec:          g1CombRate,
		G1LadderPerSec:        g1LadderRate,
		G1CombSpeedup:         g1CombRate / g1LadderRate,
		G2CombPerSec:          g2CombRate,
		G2LadderPerSec:        g2LadderRate,
		G2CombSpeedup:         g2CombRate / g2LadderRate,
		BLSVerifyPerSec:       verifyRate,
		BLSVerifyTatePerSec:   verifyTateRate,
		BLSVerifyAteSpeedup:   verifyRate / verifyTateRate,
		AttestBatchPerSec:     batchRate3,
		AttestBatchSpeedup:    batchRate3 / (verifyTateRate / attestShares),
		Scan24kProjSec:        24000 / decRate / 4,
		Scan24kBatchProjSec:   24000 / batchRate / 4,
		Scan24kMeasSec:        parallelScan / mailboxSize * 24000,
		ScanWorkers:           workers,
	}

	fmt.Printf("decrypts/sec (1 core, per-ciphertext): %8.1f   (paper: 800/sec/core)\n", rec.DecryptsPerSec)
	fmt.Printf("decrypts/sec (1 core, batched scan):   %8.1f   (%.2fx)\n", rec.BatchDecryptsPerSec, rec.BatchScanSpeedup)
	fmt.Printf("v2 decrypts/sec (1 core, scalar ate):  %8.1f\n", rec.DecryptsV2PerSec)
	fmt.Printf("v2 decrypts/sec (1 core, batched ate): %8.1f   (%.2fx over batched v1)\n", rec.BatchDecryptsV2PerSec, rec.AteScanSpeedup)
	fmt.Printf("extractions/sec (1 core):              %8.1f   (paper: 4310/sec on 36 cores)\n", rec.ExtractionsPerSec)
	fmt.Printf("G1 ScalarBaseMult/sec: comb %9.1f vs ladder %9.1f  (%.1fx)\n", rec.G1CombPerSec, rec.G1LadderPerSec, rec.G1CombSpeedup)
	fmt.Printf("G2 ScalarBaseMult/sec: comb %9.1f vs ladder %9.1f  (%.1fx)\n", rec.G2CombPerSec, rec.G2LadderPerSec, rec.G2CombSpeedup)
	fmt.Printf("BLS Verify/sec: ate %9.1f vs tate check %9.1f  (%.2fx)\n", rec.BLSVerifyPerSec, rec.BLSVerifyTatePerSec, rec.BLSVerifyAteSpeedup)
	fmt.Printf("attestation check, %d shares: batched %.1f/sec  (%.2fx over %d tate Verify)\n", attestShares, rec.AttestBatchPerSec, rec.AttestBatchSpeedup, attestShares)
	fmt.Printf("24k-mailbox scan, 4-core projection: unbatched %6.1f s, batched %6.1f s  (paper: 8 s)\n",
		rec.Scan24kProjSec, rec.Scan24kBatchProjSec)
	fmt.Printf("24k-mailbox scan, measured on %d workers: %6.1f s\n", workers, rec.Scan24kMeasSec)

	checkIBEBaseline(rec)
	writeJSONRecord("ibe-bench", rec)
}

// attestShares is the PKG count whose attestation shares a client checks
// per add-friend round in the batched-check rows.
const attestShares = 3

// blsVerifyRates measures single-core rates of the BLS checks: the ate
// bls.Verify, the Tate pairing check that Verify ran before it (hash to
// G1, then e(σ, −G2)·e(H(m), pk) through bn254.TatePairingCheck), and
// one bls.VerifyBatch over attestShares same-message shares.
func blsVerifyRates() (ate, tate, batch float64) {
	msg := []byte("pkg attests bob@example.org at round 42")
	pubs := make([]*bls.PublicKey, attestShares)
	sigs := make([]*bls.Signature, attestShares)
	for i := range pubs {
		pub, priv, err := bls.GenerateKey(rand.Reader)
		if err != nil {
			log.Fatal(err)
		}
		pubs[i], sigs[i] = pub, bls.Sign(priv, msg)
	}
	var sig bn254.G1
	var pk bn254.G2
	if err := sig.Unmarshal(sigs[0].Marshal()); err != nil {
		log.Fatal(err)
	}
	if err := pk.Unmarshal(pubs[0].Marshal()); err != nil {
		log.Fatal(err)
	}
	tateVerify := func() bool {
		h := bn254.HashToG1("bls-signature", msg) // bls's hash domain
		negG2 := new(bn254.G2).Neg(bn254.G2Generator())
		return bn254.TatePairingCheck([]*bn254.G1{&sig, h}, []*bn254.G2{negG2, &pk})
	}
	if !tateVerify() || !bls.Verify(pubs[0], msg, sigs[0]) || !bls.VerifyBatch(pubs, msg, sigs) {
		log.Fatal("ibe-bench: a valid BLS signature failed verification")
	}
	// The three checks run interleaved and each rate comes from its
	// fastest run, so drift in machine speed moves all three alike and
	// the speedup ratios stay comparable across runs.
	checks := []func(){
		func() { bls.Verify(pubs[0], msg, sigs[0]) },
		func() { tateVerify() },
		func() { bls.VerifyBatch(pubs, msg, sigs) },
	}
	best := []time.Duration{time.Hour, time.Hour, time.Hour}
	for start := time.Now(); time.Since(start) < 750*time.Millisecond; {
		for i, check := range checks {
			t0 := time.Now()
			check()
			best[i] = min(best[i], time.Since(t0))
		}
	}
	return 1 / best[0].Seconds(), 1 / best[1].Seconds(), 1 / best[2].Seconds()
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// checkIBEBaseline compares a fresh run's machine-independent speedup
// ratios against the committed baseline record (-baseline flag) and exits
// nonzero if any ratio regressed by more than 30%. Absolute rates are
// reported but not gated — they track the runner, not the code.
func checkIBEBaseline(fresh ibeBenchRecord) {
	if baselinePath == "" {
		return
	}
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		log.Fatalf("ibe-bench: reading baseline: %v", err)
	}
	var base ibeBenchRecord
	if err := json.Unmarshal(data, &base); err != nil {
		log.Fatalf("ibe-bench: parsing baseline: %v", err)
	}
	fmt.Printf("\nbaseline check against %s (fail below 70%% of baseline ratio):\n", baselinePath)
	failed := false
	for _, c := range []struct {
		name        string
		fresh, base float64
	}{
		{"g1_comb_speedup", fresh.G1CombSpeedup, base.G1CombSpeedup},
		{"g2_comb_speedup", fresh.G2CombSpeedup, base.G2CombSpeedup},
		{"batch_scan_speedup", fresh.BatchScanSpeedup, base.BatchScanSpeedup},
		{"ate_scan_speedup", fresh.AteScanSpeedup, base.AteScanSpeedup},
		{"bls_verify_ate_speedup", fresh.BLSVerifyAteSpeedup, base.BLSVerifyAteSpeedup},
		{"attest_batch_speedup", fresh.AttestBatchSpeedup, base.AttestBatchSpeedup},
	} {
		if c.base <= 0 {
			fmt.Printf("  %-22s baseline has no value, skipped\n", c.name)
			continue
		}
		status := "ok"
		if c.fresh < 0.7*c.base {
			status = "REGRESSION"
			failed = true
		}
		fmt.Printf("  %-22s fresh %5.2fx vs baseline %5.2fx   %s\n", c.name, c.fresh, c.base, status)
	}
	if failed {
		log.Fatal("ibe-bench: speedup ratio regressed >30% against the committed baseline")
	}
}

// rate runs f repeatedly for ~1/4 second and returns iterations/sec.
func rate(f func()) float64 {
	// Warm up once (first call may pay one-time setup).
	f()
	n := 0
	start := time.Now()
	for time.Since(start) < 250*time.Millisecond {
		f()
		n++
	}
	return float64(n) / time.Since(start).Seconds()
}
