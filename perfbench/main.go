// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload per invocation, in-process, and prints a human-readable
// report followed by one JSON result line:
//
//	perfbench --workload durable-json|nosync-bin|offline-paper --seed N --seconds S --trace 0|1
//
// Build and run it from the repository root with perfbench/run.sh, which
// compiles this package from the checkout's sources first.
//
// Workloads (closed loop; the service workloads use one client worker per
// CPU, each waiting for its reply before sending the next request).
// BENCHMARK.json declares nosync-bin and offline-paper; durable-json runs
// the same way but is left out of it, because its fsync-bound figures swing
// with other tenants' disk traffic on a shared host (8k to 75k labels/s
// between runs minutes apart), beyond any regression bound.
//
//   - durable-json: the production default path. The service is wired as
//     cmd/oasis-server wires it (metrics on, tracing at
//     trace.DefaultSampleRate, -wal with fsync always on a disk directory,
//     durable pool store, default shards). The paper-scale
//     Amazon-GoogleProducts pool is uploaded once, then 8 poolref sessions
//     with a 2,000-label budget are labelled with JSON propose?n=16 +
//     labels rounds; exhausted sessions are read, deleted and recreated.
//     The run ends by closing the journal and replaying it into a fresh
//     manager.
//   - nosync-bin: the same pool and wiring with fsync off, 8 unbudgeted
//     sessions, OBP1 binary propose + labels rounds, each followed by an
//     OBP1 estimate read. The client replaces a session after 10,000
//     labels: the sampler's round cost grows with the labelled share of
//     the pool, so unbounded sessions would make the run non-stationary.
//     It bypasses fsync and the JSON codec: changes to either are
//     predicted flat here.
//   - offline-paper: the paper harness. erbench.FinalError at a
//     5,000-label budget on the paper-scale Amazon-GoogleProducts, Abt-Buy
//     and cora pools (OASIS, with the IS and Passive baselines), plus
//     sampler-only rounds (oasis.Sampler ProposeBatch(16) + 16 commits) on
//     the Amazon-GoogleProducts pool, in passes of 5,000 labels, 48 after
//     each harness batch over one shared stratification. It bypasses the
//     server, session and WAL layers: changes to them are predicted flat
//     here.
//
// End-to-end metrics (every workload; see BENCHMARK.json): round_p50_us and
// round_p90_us (service: client-observed propose + labels round, over the
// one-second windows whose host CPU steal is at most the run's median
// window steal; offline-paper: sampler-only round, the median over batches
// of each batch's quantile), labels_per_s (service: acknowledged labels,
// median rate of those windows; offline-paper: OASIS labels through
// FinalError, the median over harness batches), max_rss_mb (peak resident
// memory after set-up, while the workload runs), setup_s (median of several
// set-ups in the run) and ok_ratio (operations that succeeded over
// operations attempted). offline-paper scales each batch and set-up to a
// nominal host from a memory scan timed around it and the host's CPU steal
// over it (see hostscan.go), and prints the figures as measured beside
// them. create_p50_ms (service: POST /v1/sessions; offline-paper: Stratify
// + NewSampler) and the other figures the report prints are per-layer rows,
// not gated. The datasets are generated at a fixed seed; the workload seed
// drives everything that runs over them.
//
// With --trace 1 the run interleaves untraced and traced measurement (the
// difference is the tracing overhead) and prints the per-layer ledger
// instead of the end-to-end metrics (see layers.go): each layer
// figure with its sample count and the end-to-end metric it should move.
// Layers are timed from outside the program: an http.Handler wrapper
// around Server.Handler(), a session.Journal wrapper installed with
// Manager.SetJournal, direct calls into the pool store, sampler and
// harness, and the histograms the program already exports on /metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// config sizes one run. The command line sets the workload, seed, run
// length and trace mode; the rest are the paper-scale defaults, which the
// self-test shrinks.
type config struct {
	workload string
	seed     uint64
	measure  time.Duration
	trace    bool

	scale     float64       // erbench pool scale (1 = the paper's Table 2 sizes)
	warmup    time.Duration // unrecorded closed-loop time before measuring
	setupReps int           // set-ups per run; setup_s is their median

	sessions int // service sessions, shared out over the workers
	budget   int // durable-json label budget per session
	retireAt int // labels after which the nosync-bin client replaces a session
	batch    int // propose ?n=

	offlineBudget int // labels per harness run
	offlineRuns   int // OASIS runs per dataset per harness batch
	baselineRuns  int // IS and Passive runs per dataset

	dir string // working directory for journals and pool files

	// dropCommit, when positive, makes the benchmark's journal wrapper drop
	// that commit event (1-based) instead of appending it. Only the
	// self-test sets it, to prove the durability check catches a lost label.
	dropCommit int
}

func defaultConfig() config {
	return config{
		scale:         1,
		warmup:        time.Second,
		setupReps:     3,
		sessions:      8,
		budget:        2000,
		retireAt:      10000,
		batch:         16,
		offlineBudget: 5000,
		offlineRuns:   40,
		baselineRuns:  20,
	}
}

// result is what a workload reports: correctness, operation counts, the
// end-to-end metrics (untraced runs) or the per-layer ledger (traced runs).
type result struct {
	problems  []string
	attempted int
	failed    int
	e2e       metrics
	layers    metrics
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func main() {
	cfg := defaultConfig()
	var seed uint64
	var seconds int
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "durable-json, nosync-bin or offline-paper")
	flag.Uint64Var(&seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&seconds, "seconds", 10, "measured seconds per phase")
	flag.IntVar(&traceFlag, "trace", 0, "1 prints the per-layer ledger instead of the end-to-end metrics")
	flag.Parse()
	if seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	cfg.seed = seed
	cfg.measure = time.Duration(seconds) * time.Second
	cfg.trace = traceFlag == 1

	root, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	cfg.dir = filepath.Join(root, ".bench_build", "run-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fatal(err)
	}
	res, err := run(cfg, os.Stdout)
	if rmErr := os.RemoveAll(cfg.dir); rmErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: remove %s: %v\n", cfg.dir, rmErr)
	}
	if err != nil {
		fatal(err)
	}
	printResult(os.Stdout, cfg, res)
	if len(res.problems) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// workloadNames are the workloads the command runs.
var workloadNames = []string{"durable-json", "nosync-bin", "offline-paper"}

// run executes one workload and fills in the metrics every run reports. An
// error means the run could not be carried out at all; correctness failures
// are problems on the result.
func run(cfg config, out io.Writer) (*result, error) {
	printMachine(out, cfg)
	total0, steal0 := cpuTicks()
	defer func() {
		total1, steal1 := cpuTicks()
		fmt.Fprintf(out, "machine  cpu_steal=%.1f%% of machine CPU time during the run\n", 100*ratio(float64(steal1-steal0), float64(total1-total0)))
	}()
	var (
		res *result
		err error
	)
	switch cfg.workload {
	case workloadNames[0], workloadNames[1]:
		res, err = runService(cfg, out)
	case workloadNames[2]:
		res, err = runOffline(cfg, out)
	default:
		return nil, fmt.Errorf("unknown workload %q (want durable-json, nosync-bin or offline-paper)", cfg.workload)
	}
	if err != nil {
		return nil, err
	}
	okRatio := ratio(float64(res.attempted-res.failed), float64(res.attempted))
	res.e2e.set("ok_ratio", okRatio, "ratio", res.attempted)
	return res, nil
}

// e2eRows lists the end-to-end metrics every untraced run reports, in
// BENCHMARK.json order.
var e2eRows = []struct{ name, unit string }{
	{"round_p50_us", "us"}, {"round_p90_us", "us"}, {"labels_per_s", "labels/s"},
	{"max_rss_mb", "MB"}, {"setup_s", "s"}, {"ok_ratio", "ratio"},
}

// printResult writes the report and, last, the one-line JSON result. A
// metric the run could not measure (no samples) is reported as 0 and fails
// the run.
func printResult(out io.Writer, cfg config, res *result) {
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	chosen := map[string]jsonMetric{}
	pick := func(list metrics, name, unit string, required bool) {
		m, ok := list.get(name)
		if !ok || !finite(m.Value) {
			if required {
				res.problem("metric %s was not measured", name)
			}
			m.Value = 0
		}
		chosen[name] = jsonMetric{m.Value, unit}
	}
	if cfg.trace {
		for _, row := range ledgerRows {
			pick(res.layers, row.name, row.unit, false)
		}
		printLedger(out, cfg.workload, res.layers)
	} else {
		for _, row := range e2eRows {
			pick(res.e2e, row.name, row.unit, true)
		}
		fmt.Fprintf(out, "%-34s %14s %-8s %8s\n", "end-to-end ("+cfg.workload+")", "value", "unit", "samples")
		for _, m := range res.e2e {
			fmt.Fprintf(out, "%-34s %14.4f %-8s %8d\n", m.Name, m.Value, m.Unit, m.N)
		}
	}
	for _, p := range res.problems {
		fmt.Fprintf(out, "FAIL  %s\n", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{len(res.problems) == 0, max(res.attempted, 1), res.failed, chosen})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(out, string(line))
}
