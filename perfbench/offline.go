package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"oasis"
	"oasis/erbench"
)

// datasetSeed fixes the generated datasets, as the paper's corpora are
// fixed: the workload seed drives what runs over them (session, sampler
// and harness seeds), so runs at different seeds measure the same pools.
const datasetSeed = 1

// passesPerBatch is how many sampler-only passes follow each harness batch.
// They share one stratification, as a pool's sessions do, so that the
// rounds, not Stratify, take most of their time.
const passesPerBatch = 48

// offlineDatasets are the paper-scale pools of the offline workload,
// from most to least imbalanced (3381:1, 1075:1, 48:1 at scale 1).
var offlineDatasets = []string{"Amazon-GoogleProducts", "Abt-Buy", "cora"}

// samplerTimes accumulates sampler-only rounds.
type samplerTimes struct {
	rounds   series // µs per ProposeBatch + commits round
	propose  series // µs per ProposeBatch (split timing only)
	commit   time.Duration
	commits  int
	rebuilds uint64
	labels   int
	stratify series // ms
	newS     series // ms
}

// stratify stratifies p the way a session's pool is, timing it into st.
func stratify(p *oasis.Pool, st *samplerTimes) (*oasis.Stratification, error) {
	start := time.Now()
	strat, err := oasis.Stratify(p, oasis.Options{})
	if err != nil {
		return nil, err
	}
	st.stratify.add(ms(time.Since(start)))
	return strat, nil
}

// samplerPass builds a standalone sampler over p and its stratification
// the way a session does (NewSamplerStratified) and drives it in rounds of
// ProposeBatch(batch) followed by one CommitLabelTerms per pair, until
// labels labels are committed. split additionally times the propose and
// the commits of each round apart. It returns the final estimate.
func samplerPass(p *oasis.Pool, strat *oasis.Stratification, seed uint64, truth []bool, batch, labels int, split bool, st *samplerTimes) (float64, error) {
	opts := oasis.Options{Seed: seed}
	start := time.Now()
	s, err := oasis.NewSamplerStratified(p, opts, strat)
	if err != nil {
		return 0, err
	}
	st.newS.add(ms(time.Since(start)))
	rebuilds, _ := s.RebuildStats()
	for done := 0; done < labels; {
		n := min(batch, labels-done)
		t0 := time.Now()
		pairs, err := s.ProposeBatch(n)
		if err != nil {
			return 0, fmt.Errorf("propose: %w", err)
		}
		var t1 time.Time
		if split {
			t1 = time.Now()
			st.propose.addDur(t1.Sub(t0))
		}
		for _, pair := range pairs {
			if _, err := s.CommitLabelTerms(pair, truth[pair]); err != nil {
				return 0, fmt.Errorf("commit: %w", err)
			}
		}
		if split {
			st.commit += time.Since(t1)
		}
		st.rounds.addDur(time.Since(t0))
		st.commits += len(pairs)
		done += len(pairs)
	}
	after, _ := s.RebuildStats()
	st.rebuilds += after - rebuilds
	st.labels += labels
	return s.Estimate(), nil
}

// setSamplerLayers reports the oasis layer from split-timed passes.
func setSamplerLayers(st *samplerTimes, m *metrics) {
	m.set("oasis.stratify_ms", st.stratify.median(), "ms", len(st.stratify))
	m.set("oasis.new_sampler_ms", st.newS.median(), "ms", len(st.newS))
	m.set("oasis.propose16_us", st.propose.median(), "us", len(st.propose))
	m.set("oasis.commit_us_per_label", ratio(float64(st.commit.Nanoseconds())/1e3, float64(st.commits)), "us", st.commits)
	m.set("oasis.rebuilds_per_1k_labels", ratio(float64(st.rebuilds)*1000, float64(st.labels)), "1/1k-labels", st.labels)
}

// usPerLabel times whole single-worker oasis.Sampler.Run calls at the
// harness budget (three runs, median) and reports microseconds per label.
func usPerLabel(b *erbench.BuiltPool, seed uint64, budget int, m *metrics) error {
	var per series
	for rep := 0; rep < 3; rep++ {
		s, err := oasis.NewSampler(b.Pool, oasis.Options{Seed: seed + uint64(rep)})
		if err != nil {
			return err
		}
		start := time.Now()
		res, err := s.Run(b.Oracle(seed), budget)
		if err != nil {
			return err
		}
		per.add(float64(time.Since(start).Nanoseconds()) / 1e3 / float64(res.LabelsConsumed))
	}
	m.set("offline.us_per_label."+b.Name, per.median(), "us", len(per))
	return nil
}

// probeLayers measures, after a traced service phase, the layers with
// public entry points: the pool store, a standalone sampler over the
// session pool with a session's options and seed, and the harness run.
func probeLayers(cfg config, ss *serviceSetup, m *metrics) error {
	if err := probePoolStore(cfg, ss, m); err != nil {
		return err
	}
	var st samplerTimes
	for rep := 0; rep < 3; rep++ {
		strat, err := stratify(ss.built.Pool, &st)
		if err != nil {
			return fmt.Errorf("sampler probe: %w", err)
		}
		if _, err := samplerPass(ss.built.Pool, strat, sessionSeed(cfg.seed, 0, rep+1), ss.wl.truth, cfg.batch, cfg.budget, true, &st); err != nil {
			return fmt.Errorf("sampler probe: %w", err)
		}
	}
	setSamplerLayers(&st, m)
	return usPerLabel(ss.built, cfg.seed, cfg.offlineBudget, m)
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// offlinePools is the offline workload's input.
type offlinePools struct {
	pools  []*erbench.BuiltPool
	truths [][]bool
}

func buildOfflinePools(cfg config) (*offlinePools, error) {
	op := &offlinePools{}
	for _, name := range offlineDatasets {
		b, err := erbench.BuildPool(name, erbench.PoolConfig{Scale: cfg.scale, Seed: datasetSeed})
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", name, err)
		}
		truth := make([]bool, len(b.TruthProb))
		for i, p := range b.TruthProb {
			truth[i] = p >= 0.5
		}
		op.pools = append(op.pools, b)
		op.truths = append(op.truths, truth)
	}
	return op, nil
}

// offlinePhase is one timed stretch of the offline workload.
type offlinePhase struct {
	labelsPerS series // OASIS harness labels per second, one per batch
	rawLPS     series // labelsPerS as measured
	// Sampler-only round quantiles in µs, one per batch of passes, at the
	// nominal host speed, and the median as measured.
	p50, p90, p99, rawP50 series
	nRounds               int
	sampler               samplerTimes
	plain                 samplerTimes // the untraced twin passes of a traced phase
	creates               series       // ms, Stratify + the batch's first NewSamplerStratified
	harnessLab            int
	elapsed               time.Duration
	mem0, mem1            runtime.MemStats
}

// runOfflinePhase alternates, until d has passed, a harness batch (OASIS
// FinalError on every pool, at a fresh seed) and passesPerBatch
// sampler-only passes on the first pool, the one the service workloads
// label. A traced phase runs each sampler pass twice at one seed, untimed
// inside and then split into propose and commits, so the tracing overhead
// is measured on identical work. The host's scans and steal around each
// batch and each set of passes scale their figures to the nominal host.
// An untraced phase keeps only the current batch's rounds, so that its
// memory does not grow with the run and show in max_rss_mb.
func runOfflinePhase(cfg config, op *offlinePools, hs *hostScan, d time.Duration, traced bool, res *result) *offlinePhase {
	ph := &offlinePhase{}
	runtime.ReadMemStats(&ph.mem0)
	start := time.Now()
	scan := hs.measure()
	for batch := 1; batch == 1 || time.Since(start) < d; batch++ {
		hc := erbench.HarnessConfig{Budget: cfg.offlineBudget, Runs: cfg.offlineRuns, Workers: runtime.NumCPU(),
			Seed: cfg.seed*1_000_003 + uint64(batch)*10_007}
		hs.start()
		t0 := time.Now()
		for _, b := range op.pools {
			res.attempted++
			mean, ci, err := erbench.FinalError(b, erbench.OASIS, hc)
			if err != nil || !finite(mean) || !finite(ci) {
				res.failed++
				res.problem("offline: %s OASIS FinalError = %v ± %v, err %v", b.Name, mean, ci, err)
			}
		}
		labels := len(op.pools) * cfg.offlineRuns * cfg.offlineBudget
		lps := float64(labels) / time.Since(t0).Seconds()
		steal := hs.stealShare()
		// The scan collects garbage first, so the sampler-only passes, on the
		// service pool (the first), do not collect the harness batch's.
		prev := scan
		scan = hs.measure()
		ph.rawLPS.add(lps)
		ph.labelsPerS.add(factors(prev, scan, steal).rate(lps))
		ph.harnessLab += labels
		b := op.pools[0]
		r0 := len(ph.sampler.rounds)
		hs.start()
		res.attempted++
		strat, err := stratify(b.Pool, &ph.sampler)
		if err != nil {
			res.failed++
			res.problem("offline: %s stratify: %v", b.Name, err)
		}
		for k := 0; err == nil && k < passesPerBatch; k++ {
			seed := hc.Seed + uint64(k)
			if traced {
				if _, err := samplerPass(b.Pool, strat, seed, op.truths[0], cfg.batch, cfg.offlineBudget, false, &ph.plain); err != nil {
					res.problem("offline: %s sampler-only pass: %v", b.Name, err)
				}
			}
			res.attempted++
			est, err := samplerPass(b.Pool, strat, seed, op.truths[0], cfg.batch, cfg.offlineBudget, traced, &ph.sampler)
			if err != nil || !finite(est) {
				res.failed++
				res.problem("offline: %s sampler-only pass: estimate %v, err %v", b.Name, est, err)
				continue
			}
			if k == 0 {
				ph.creates.add(ph.sampler.stratify[len(ph.sampler.stratify)-1] + ph.sampler.newS[len(ph.sampler.newS)-1])
			}
		}
		steal = hs.stealShare()
		prev = scan
		scan = hs.measure()
		if rounds := ph.sampler.rounds[r0:]; len(rounds) > 0 {
			f := factors(prev, scan, steal)
			ph.rawP50.add(rounds.median())
			ph.p50.add(f.median(rounds.median()))
			ph.p90.add(f.time(rounds.quantile(0.90)))
			ph.p99.add(f.time(rounds.quantile(0.99)))
			ph.nRounds += len(rounds)
		}
		if !traced {
			ph.sampler.rounds = ph.sampler.rounds[:0]
		}
	}
	ph.elapsed = time.Since(start)
	runtime.ReadMemStats(&ph.mem1)
	return ph
}

// runOffline runs offline-paper.
func runOffline(cfg config, out io.Writer) (*result, error) {
	res := &result{}
	hs, err := newHostScan()
	if err != nil {
		return nil, err
	}
	defer hs.close()
	var op *offlinePools
	setupTimes, rawSetup, err := hs.setups(cfg.setupReps, func(int) (time.Duration, error) {
		start := time.Now()
		x, err := buildOfflinePools(cfg)
		op = x
		return time.Since(start), err
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "setup    %d x %.3fs median (%.3fs as measured)\n", len(setupTimes), setupTimes.median(), rawSetup.median())

	// The paper's numbers at the workload seed: OASIS mean |F̂−F| per pool,
	// once more on one pool to prove it repeats bit for bit, and the
	// baselines OASIS is compared against.
	hc := erbench.HarnessConfig{Budget: cfg.offlineBudget, Runs: cfg.offlineRuns, Seed: cfg.seed, Workers: runtime.NumCPU()}
	errOf := func(b *erbench.BuiltPool, kind erbench.MethodKind, hc erbench.HarnessConfig) float64 {
		res.attempted++
		mean, ci, err := erbench.FinalError(b, kind, hc)
		if err != nil || !finite(mean) || !finite(ci) {
			res.failed++
			res.problem("offline: %s %v FinalError = %v ± %v, err %v", b.Name, kind, mean, ci, err)
		}
		return mean
	}
	// A baseline's estimate is undefined (NaN) in a run that draws no
	// positive pair, which Passive often does on the imbalanced pools; the
	// harness averages the defined runs, and a baseline with none reports no
	// error rather than failing the run.
	baseErr := func(kind erbench.MethodKind, hc erbench.HarnessConfig) (float64, int) {
		var sum float64
		var n int
		for _, b := range op.pools {
			res.attempted++
			mean, _, err := erbench.FinalError(b, kind, hc)
			switch {
			case err != nil:
				res.failed++
				res.problem("offline: %s %v FinalError: %v", b.Name, kind, err)
			case finite(mean):
				sum += mean
				n++
			}
		}
		return ratio(sum, float64(n)), n * hc.Runs
	}
	var oasisErr float64
	perPool := make([]float64, len(op.pools))
	for i, b := range op.pools {
		perPool[i] = errOf(b, erbench.OASIS, hc)
		oasisErr += perPool[i] / float64(len(op.pools))
		fmt.Fprintf(out, "paper    %s OASIS |F̂−F| = %.6f at %d labels x %d runs\n", b.Name, perPool[i], cfg.offlineBudget, cfg.offlineRuns)
	}
	base := hc
	base.Runs = cfg.baselineRuns
	isErr, isN := baseErr(erbench.ImportanceSampling, base)
	passiveErr, passiveN := baseErr(erbench.Passive, base)
	fmt.Fprintf(out, "paper    mean |F̂−F| over pools: OASIS %.6f, IS %.6f, Passive %.6f\n", oasisErr, isErr, passiveErr)
	last := len(op.pools) - 1
	if again := errOf(op.pools[last], erbench.OASIS, hc); math.Float64bits(again) != math.Float64bits(perPool[last]) {
		res.problem("offline: %s OASIS error %v did not repeat at seed %d (got %v)", op.pools[last].Name, perPool[last], cfg.seed, again)
	}
	res.e2e.set("offline_abs_err", oasisErr, "F", len(op.pools)*cfg.offlineRuns)

	if !resetPeakRSS() {
		fmt.Fprintln(out, "note     peak RSS could not be reset: max_rss_mb includes set-up")
	}
	ph := runOfflinePhase(cfg, op, hs, cfg.measure, cfg.trace, res)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.e2e.set("max_rss_mb", rss-hs.residentMB(), "MB", 1)
	res.e2e.set("round_p50_us", ph.p50.median(), "us", ph.nRounds)
	res.e2e.set("round_p90_us", ph.p90.median(), "us", ph.nRounds)
	res.e2e.set("round_p99_us", ph.p99.median(), "us", ph.nRounds)
	res.e2e.set("labels_per_s", ph.labelsPerS.median(), "labels/s", len(ph.labelsPerS))
	fmt.Fprintf(out, "host     %d MiB scan: median %.3f ms over %d, nominal %.1f ms; as measured, round p50 %.3f us, %.0f labels/s\n",
		hostScanBytes>>20, hs.times.median(), len(hs.times), hostScanNominalMs, ph.rawP50.median(), ph.rawLPS.median())
	res.e2e.set("create_p50_ms", ph.creates.median(), "ms", len(ph.creates))
	res.e2e.set("setup_s", setupTimes.median(), "s", len(setupTimes))

	if cfg.trace {
		m := &res.layers
		setSamplerLayers(&ph.sampler, m)
		for _, b := range op.pools {
			if err := usPerLabel(b, cfg.seed, cfg.offlineBudget, m); err != nil {
				return nil, err
			}
		}
		m.set("erbench.build_pool_s", rawSetup.median(), "s", len(rawSetup))
		m.set("offline_abs_err", oasisErr, "F", len(op.pools)*cfg.offlineRuns)
		m.set("offline_abs_err_is", isErr, "F", isN)
		m.set("offline_abs_err_passive", passiveErr, "F", passiveN)
		// A "round" here is 16 labels of either kind of work in the phase.
		rounds := float64(ph.harnessLab+ph.sampler.labels) / float64(cfg.batch)
		m.set("runtime.alloc_kb_per_round", float64(ph.mem1.TotalAlloc-ph.mem0.TotalAlloc)/1024/rounds, "KiB/round", int(rounds))
		m.set("runtime.gc_pause_ms_per_s", float64(ph.mem1.PauseTotalNs-ph.mem0.PauseTotalNs)/1e6/ph.elapsed.Seconds(), "ms/s", int(ph.mem1.NumGC-ph.mem0.NumGC))
		n := len(ph.sampler.rounds)
		round := ph.sampler.rounds.sum() / float64(n)
		propose := ph.sampler.propose.sum() / float64(n)
		commit := float64(ph.sampler.commit.Nanoseconds()) / 1e3 / float64(n)
		m.set("oasis.propose_per_round_us", propose, "us", n)
		m.set("oasis.commit_per_round_us", commit, "us", n)
		m.set("round_p99_us", ph.plain.rounds.quantile(0.99), "us", len(ph.plain.rounds))
		m.set("create_p50_ms", ph.creates.median(), "ms", len(ph.creates))
		m.set("bench.round_us", round, "us", n)
		m.set("bench.unattributed_us", round-propose-commit, "us", n)
		m.set("bench.trace_overhead_pct", (ph.sampler.rounds.median()/ph.plain.rounds.median()-1)*100, "%", n)
		m.set("bench.host_scan_ms", hs.times.median(), "ms", len(hs.times))
	}
	return res, nil
}
