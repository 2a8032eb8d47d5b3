package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"alpenhorn/internal/wire"
)

func shortRun(t *testing.T, workload string, seed int64, trace bool, f fault) *result {
	t.Helper()
	res, err := run(config{
		workload: workload, seed: seed, rounds: 2, setups: 1, trace: trace,
		dataDir: t.TempDir(), fault: f,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func requireClean(t *testing.T, res *result) {
	t.Helper()
	if res.failed != 0 || res.attempted == 0 {
		t.Fatalf("%d of %d checks failed: %v", res.failed, res.attempted, res.failures)
	}
}

// TestSameSeedSameCounts runs each workload twice with one seed: the work
// each round does — admitted onions, noise, extractions, mailbox sizes,
// scanned entries — must repeat exactly.
func TestSameSeedSameCounts(t *testing.T) {
	for _, w := range []string{"addfriend", "dialing", "dialing-sharded"} {
		t.Run(w, func(t *testing.T) {
			a := shortRun(t, w, 11, false, fault{})
			b := shortRun(t, w, 11, false, fault{})
			requireClean(t, a)
			requireClean(t, b)
			if len(a.counts) != 2 || !reflect.DeepEqual(a.counts, b.counts) {
				t.Fatalf("same seed, different work:\n%+v\n%+v", a.counts, b.counts)
			}
		})
	}
}

// TestInjectedFaultsAreCounted drops one client's onion and corrupts one
// client's fetched mailbox: each must show up as failed operations.
func TestInjectedFaultsAreCounted(t *testing.T) {
	// Dialing warm-up uses rounds 1-2, so round 3 is the first timed one;
	// every client calls a friend in it.
	for name, f := range map[string]fault{
		"drop":    {kind: faultDrop, service: wire.Dialing, round: 3, client: 0},
		"corrupt": {kind: faultCorrupt, service: wire.Dialing, round: 3, client: 0},
	} {
		t.Run(name, func(t *testing.T) {
			res := shortRun(t, "dialing", 5, false, f)
			if res.failed == 0 {
				t.Fatalf("injected %s fault was not counted (%d checks)", name, res.attempted)
			}
			if code := report(res); code == 0 {
				t.Fatal("a run with failed checks exited 0")
			}
		})
	}
}

// TestTracedRunDoesSameWork compares a traced and an untraced run of one
// seed, and checks that each prints exactly the metrics BENCHMARK.json
// lists for it.
func TestTracedRunDoesSameWork(t *testing.T) {
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	names := func(ms []metric) map[string]string {
		out := make(map[string]string)
		for _, m := range ms {
			out[m.name] = m.unit
		}
		return out
	}
	plain := shortRun(t, "dialing-sharded", 3, false, fault{})
	traced := shortRun(t, "dialing-sharded", 3, true, fault{})
	requireClean(t, plain)
	requireClean(t, traced)
	if !reflect.DeepEqual(plain.counts, traced.counts) {
		t.Fatalf("tracing changed the work:\n%+v\n%+v", plain.counts, traced.counts)
	}
	for _, c := range []struct {
		got  map[string]string
		want []struct{ Name, Unit string }
	}{{names(plain.metrics), bench.EndToEnd}, {names(traced.metrics), bench.PerLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("printed %d metrics, BENCHMARK.json lists %d", len(c.got), len(c.want))
		}
		for _, m := range c.want {
			if unit, ok := c.got[m.Name]; !ok || unit != m.Unit {
				t.Errorf("metric %s (%s): printed %v with unit %q", m.Name, m.Unit, ok, unit)
			}
		}
	}
}
