package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// tinyConfig shrinks every workload to a second or two of work.
func tinyConfig(t *testing.T, workload string, traced bool) config {
	cfg := defaultConfig()
	cfg.workload = workload
	cfg.seed = 7
	cfg.trace = traced
	cfg.measure = time.Second
	cfg.warmup = 100 * time.Millisecond
	cfg.scale = 0.02
	cfg.setupReps = 2
	cfg.sessions = 4
	cfg.budget = 64 // four rounds, so sessions churn
	cfg.retireAt = 64
	cfg.offlineBudget = 200
	cfg.offlineRuns = 4
	cfg.baselineRuns = 2
	cfg.dir = t.TempDir()
	return cfg
}

type jsonResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runTiny runs one tiny workload and parses the JSON line it ends with.
func runTiny(t *testing.T, cfg config) (*result, jsonResult, string) {
	t.Helper()
	var out bytes.Buffer
	res, err := run(cfg, &out)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	printResult(&out, cfg, res)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var jr jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &jr); err != nil {
		t.Fatalf("%s: last line is not the JSON result: %v\n%s", cfg.workload, err, out.String())
	}
	return res, jr, out.String()
}

// TestWorkloadsReportEveryMetric runs each workload at tiny size, untraced
// and traced, and checks the run is correct and reports every metric that
// BENCHMARK.json declares; durable-json is run too, though not declared.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.EndToEnd) != len(e2eRows) || len(bench.PerLayer) != len(ledgerRows) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end and %d per-layer metrics; the program reports %d and %d",
			len(bench.EndToEnd), len(bench.PerLayer), len(e2eRows), len(ledgerRows))
	}
	for i, m := range bench.EndToEnd {
		if m.Name != e2eRows[i].name || m.Unit != e2eRows[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, program reports %s %s", i, m.Name, m.Unit, e2eRows[i].name, e2eRows[i].unit)
		}
	}
	for i, m := range bench.PerLayer {
		if m.Name != ledgerRows[i].name || m.Unit != ledgerRows[i].unit {
			t.Errorf("per_layer[%d] = %s %s, program reports %s %s", i, m.Name, m.Unit, ledgerRows[i].name, ledgerRows[i].unit)
		}
	}
	for _, w := range bench.Workloads {
		if !slices.Contains(workloadNames, w.Name) {
			t.Errorf("BENCHMARK.json declares workload %s, which the program does not run", w.Name)
		}
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := tinyConfig(t, name, traced)
			_, jr, out := runTiny(t, cfg)
			if !jr.Correct || jr.Failed != 0 || jr.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", name, traced, jr.Correct, jr.Attempted, jr.Failed, out)
			}
			want := bench.EndToEnd
			if traced {
				want = bench.PerLayer
			}
			if len(jr.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(jr.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := jr.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", name, traced, m.Name, got.Unit, m.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want positive", name, m.Name, got.Value)
				}
			}
			if traced && name != "offline-paper" && !strings.Contains(out, "ledger   round") {
				t.Errorf("%s: traced run printed no ledger closure\n%s", name, out)
			}
		}
	}
}

// TestDroppedCommitFailsDurability installs a journal wrapper that drops
// one commit but acknowledges it: the replay check must fail the run.
func TestDroppedCommitFailsDurability(t *testing.T) {
	for _, workload := range []string{"nosync-bin", "durable-json"} {
		cfg := tinyConfig(t, workload, false)
		cfg.budget = 1 << 20 // no churn: the damaged session stays live to the end
		cfg.retireAt = 1 << 20
		cfg.dropCommit = 5
		res, jr, out := runTiny(t, cfg)
		if jr.Correct {
			t.Fatalf("%s: a dropped commit went unnoticed\n%s", workload, out)
		}
		found := false
		for _, p := range res.problems {
			found = found || strings.HasPrefix(p, "durability:")
		}
		if !found {
			t.Errorf("%s: failed, but not on the durability check: %v", workload, res.problems)
		}
		t.Logf("%s: %v", workload, res.problems)
	}
}
