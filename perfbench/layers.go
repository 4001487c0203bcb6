package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"oasis/internal/obs"
	"oasis/internal/poolstore"
	"oasis/internal/session"
)

// ledgerRow declares one per-layer metric: its unit and the end-to-end
// metric (at workload) it should move. The rows are the per_layer list of
// BENCHMARK.json, in order; a row a workload does not exercise reports 0
// with no samples.
type ledgerRow struct {
	name, unit, moves string
}

var ledgerRows = []ledgerRow{
	{"server.propose_us", "us", "round_p50_us@durable-json,nosync-bin"},
	{"server.labels_us", "us", "round_p50_us@durable-json,nosync-bin"},
	{"server.estimate_us", "us", "estimate_p50_us@nosync-bin"},
	{"server.create_us", "us", "create_p50_ms@durable-json"},
	{"server.delete_us", "us", "create_p50_ms@durable-json"},
	{"server.self_us", "us", "round_p50_us@nosync-bin (routing, admission, codec)"},
	{"server.req_bytes_per_round", "B/round", "round_p50_us@durable-json"},
	{"server.resp_bytes_per_round", "B/round", "round_p50_us@durable-json"},
	{"client.transport_us", "us", "round_p50_us@durable-json,nosync-bin"},
	{"client.codec_us", "us", "round_p50_us@durable-json"},
	{"session.propose_us", "us", "round_p50_us@nosync-bin"},
	{"session.commit_us", "us", "round_p50_us@nosync-bin"},
	{"session.create_ms", "ms", "create_p50_ms@durable-json"},
	{"session.self_us", "us", "round_p50_us@nosync-bin"},
	{"wal.append_propose_us", "us", "round_p50_us@nosync-bin"},
	{"wal.append_commit_us", "us", "labels_per_s,round_p90_us@durable-json"},
	{"wal.append_create_us", "us", "create_p50_ms@durable-json"},
	{"wal.fsync_us", "us", "labels_per_s,round_p90_us@durable-json"},
	{"wal.fsync_per_round_us", "us", "labels_per_s@durable-json"},
	{"wal.self_us", "us", "round_p50_us@nosync-bin"},
	{"wal.fsyncs_per_round", "1/round", "labels_per_s@durable-json"},
	{"wal.records_per_round", "1/round", "labels_per_s@durable-json"},
	{"wal_bytes_per_label", "B/label", "labels_per_s@durable-json"},
	{"replay_us_per_event", "us", "restart time (reported, not gated)"},
	{"estimate_p50_us", "us", "estimate reads (reported, not gated)"},
	{"create_p50_ms", "ms", "session set-up (reported, not gated: 2-3.3 ms between runs)"},
	{"round_p99_us", "us", "round tail (not gated: too noisy on a shared host)"},
	{"poolstore.put_ms", "ms", "setup_s@durable-json,nosync-bin"},
	{"poolstore.acquire_warm_us", "us", "create_p50_ms@durable-json"},
	{"poolstore.resident_mb", "MB", "max_rss_mb@durable-json,nosync-bin"},
	{"oasis.stratify_ms", "ms", "create_p50_ms@offline-paper"},
	{"oasis.new_sampler_ms", "ms", "create_p50_ms@durable-json,offline-paper"},
	{"oasis.propose16_us", "us", "labels_per_s,round_p50_us@offline-paper"},
	{"oasis.commit_us_per_label", "us", "labels_per_s,round_p50_us@offline-paper"},
	{"oasis.rebuilds_per_1k_labels", "1/1k-labels", "labels_per_s@offline-paper"},
	{"erbench.build_pool_s", "s", "setup_s@all"},
	{"offline.us_per_label.Amazon-GoogleProducts", "us", "labels_per_s@offline-paper"},
	{"offline.us_per_label.Abt-Buy", "us", "labels_per_s@offline-paper"},
	{"offline.us_per_label.cora", "us", "labels_per_s@offline-paper"},
	{"offline_abs_err", "F", "none: the paper's OASIS error, must repeat at a seed"},
	{"offline_abs_err_is", "F", "none: IS baseline error"},
	{"offline_abs_err_passive", "F", "none: Passive baseline error"},
	{"runtime.alloc_kb_per_round", "KiB/round", "round_p90_us,max_rss_mb@all"},
	{"runtime.gc_pause_ms_per_s", "ms/s", "round_p90_us@all"},
	{"bench.round_us", "us", "mean traced round: the ledger total"},
	{"bench.unattributed_us", "us", "round time no layer above accounts for"},
	{"bench.trace_overhead_pct", "%", "traced round_p50_us over untraced"},
	{"bench.host_scan_ms", "ms", "none: the host memory scan offline-paper figures are scaled by"},
}

// printLedger writes every ledger row with its samples, then how the
// round splits into layer self times.
func printLedger(out io.Writer, workload string, layers metrics) {
	fmt.Fprintf(out, "%-44s %12s %-11s %8s  %s\n", "layer ("+workload+")", "value", "unit", "samples", "moves")
	for _, row := range ledgerRows {
		m, ok := layers.get(row.name)
		if !ok || m.N == 0 {
			fmt.Fprintf(out, "%-44s %12s %-11s %8d  %s\n", row.name, "n/a", row.unit, 0, row.moves)
			continue
		}
		fmt.Fprintf(out, "%-44s %12.3f %-11s %8d  %s\n", row.name, m.Value, row.unit, m.N, row.moves)
	}
	parts := []string{"client.codec_us", "client.transport_us", "server.self_us", "session.self_us", "wal.self_us", "wal.fsync_per_round_us"}
	if workload == "offline-paper" {
		parts = []string{"oasis.propose_per_round_us", "oasis.commit_per_round_us"}
	}
	parts = append(parts, "bench.unattributed_us")
	var sum float64
	var terms []string
	for _, p := range parts {
		m, _ := layers.get(p)
		sum += m.Value
		terms = append(terms, fmt.Sprintf("%s %.2f", p, m.Value))
	}
	total, _ := layers.get("bench.round_us")
	fmt.Fprintf(out, "ledger   round %.2fus = %s = %.2fus\n", total.Value, strings.Join(terms, " + "), sum)
}

// roundHeader tags the requests inside a timed round.
const roundHeader = "X-Perfbench-Round"

// Routes the handler wrapper tells apart.
const (
	routePropose = iota
	routeLabels
	routeEstimate
	routeCreate
	routeDelete
	routeOther
	nRoutes
)

func routeOf(r *http.Request) int {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/v1/sessions":
		return routeCreate
	case !strings.HasPrefix(p, "/v1/sessions/"):
		return routeOther
	case r.Method == http.MethodDelete:
		return routeDelete
	case strings.HasSuffix(p, "/propose"):
		return routePropose
	case strings.HasSuffix(p, "/labels"):
		return routeLabels
	case r.Method == http.MethodGet && (strings.HasSuffix(p, "/estimate") || strings.Count(p, "/") == 3):
		return routeEstimate
	}
	return routeOther
}

// timeSum accumulates a count and total nanoseconds lock-free.
type timeSum struct{ n, ns atomic.Int64 }

func (t *timeSum) add(d time.Duration) {
	t.n.Add(1)
	t.ns.Add(int64(d))
}

// meanUs is the mean in microseconds, with the sample count.
func (t *timeSum) meanUs() (float64, int) {
	n := t.n.Load()
	return ratio(float64(t.ns.Load())/1e3, float64(n)), int(n)
}

// tap wraps Server.Handler() and, while on, times each request per route,
// separately for requests inside a timed round.
type tap struct {
	next  http.Handler
	on    atomic.Bool
	round [nRoutes]timeSum
	other [nRoutes]timeSum
}

func (t *tap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.on.Load() {
		t.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	t.next.ServeHTTP(w, r)
	d := time.Since(start)
	if r.Header.Get(roundHeader) != "" {
		t.round[routeOf(r)].add(d)
	} else {
		t.other[routeOf(r)].add(d)
	}
}

// timedJournal is a session.Journal wrapper around the WAL: while on, it
// times each append per event type. With drop > 0 it silently drops that
// (1-based) commit append and acknowledges it anyway — a defect the
// durability check must catch.
type timedJournal struct {
	j       session.Journal
	on      atomic.Bool
	drop    int64
	commits atomic.Int64
	propose timeSum
	commit  timeSum
	create  timeSum
}

func (t *timedJournal) Append(ev *session.Event) (uint64, error) {
	if t.drop > 0 && ev.Type == session.EventCommit && t.commits.Add(1) == t.drop {
		return 0, nil
	}
	if !t.on.Load() {
		return t.j.Append(ev)
	}
	start := time.Now()
	lsn, err := t.j.Append(ev)
	d := time.Since(start)
	switch ev.Type {
	case session.EventPropose:
		t.propose.add(d)
	case session.EventCommit:
		t.commit.add(d)
	case session.EventCreate:
		t.create.add(d)
	}
	return lsn, err
}

func (t *timedJournal) Err() error { return t.j.Err() }

// histSum is a histogram's count and sum of observations.
type histSum struct {
	n   uint64
	sum float64
}

func (h *histSum) add(x *obs.Histogram) {
	h.n += x.Count()
	h.sum += x.Sum()
}

// mean is the mean observation in seconds, with the count.
func (h histSum) mean() (float64, int) { return ratio(h.sum, float64(h.n)), int(h.n) }

// counters are the program's own instruments: the session latency
// histograms behind oasis_session_*_seconds, the WAL fsync histogram, the
// journal's Stats() and the Go runtime's. snapshotCounters reads them at
// one instant; since turns two readings into the activity between them.
type counters struct {
	propose, commit, create, sync  histSum
	walSyncs, walRecords, walBytes uint64
	allocBytes, gcPauseNs, gcs     uint64
}

func snapshotCounters(s *svc) counters {
	var c counters
	for i := 0; i < s.smet.Shards(); i++ {
		sh := s.smet.Shard(i)
		c.propose.add(sh.ProposeSeconds)
		c.commit.add(sh.CommitSeconds)
		c.create.add(sh.CreateSeconds)
	}
	c.sync.add(s.wmet.SyncSeconds)
	st := s.jrn.Stats()
	c.walSyncs, c.walRecords, c.walBytes = st.Syncs, st.RecordsAppended, st.BytesAppended
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	c.allocBytes, c.gcPauseNs, c.gcs = mem.TotalAlloc, mem.PauseTotalNs, uint64(mem.NumGC)
	return c
}

// since returns the activity between reading b and reading c.
func (c counters) since(b counters) counters {
	sub := func(x, y histSum) histSum { return histSum{x.n - y.n, x.sum - y.sum} }
	return counters{
		propose: sub(c.propose, b.propose), commit: sub(c.commit, b.commit),
		create: sub(c.create, b.create), sync: sub(c.sync, b.sync),
		walSyncs: c.walSyncs - b.walSyncs, walRecords: c.walRecords - b.walRecords, walBytes: c.walBytes - b.walBytes,
		allocBytes: c.allocBytes - b.allocBytes, gcPauseNs: c.gcPauseNs - b.gcPauseNs, gcs: c.gcs - b.gcs,
	}
}

// plus sums the activity of two windows.
func (c counters) plus(d counters) counters {
	add := func(x, y histSum) histSum { return histSum{x.n + y.n, x.sum + y.sum} }
	return counters{
		propose: add(c.propose, d.propose), commit: add(c.commit, d.commit),
		create: add(c.create, d.create), sync: add(c.sync, d.sync),
		walSyncs: c.walSyncs + d.walSyncs, walRecords: c.walRecords + d.walRecords, walBytes: c.walBytes + d.walBytes,
		allocBytes: c.allocBytes + d.allocBytes, gcPauseNs: c.gcPauseNs + d.gcPauseNs, gcs: c.gcs + d.gcs,
	}
}

// layerWindow is the traced share of a service run: what the clients saw,
// and what the program's instruments counted, while the wrappers were on.
type layerWindow struct {
	ops         opStats
	elapsed     time.Duration
	d           counters
	untracedP50 float64 // round_p50_us of the interleaved untraced slices
}

// ledger turns the traced phase into per-layer figures. Per-round values
// split the mean client round into nested self times:
//
//	round = client codec + transport + server self + session self + wal self + fsync + unattributed
//
// where transport is round-request time minus handler time, server self
// is handler time minus session time, session self is session time minus
// journal append time, and wal self is append time minus the fsyncs of the
// round's commits.
func (w *layerWindow) ledger(s *svc, m *metrics) {
	n := float64(len(w.ops.rounds))
	nr := len(w.ops.rounds)
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	perRound := func(t *timeSum) float64 { return ratio(float64(t.ns.Load())/1e3, n) }

	set := func(name string, t *timeSum) {
		v, k := t.meanUs()
		m.set(name, v, "us", k)
	}
	set("server.propose_us", &s.tap.round[routePropose])
	set("server.labels_us", &s.tap.round[routeLabels])
	set("server.estimate_us", &s.tap.other[routeEstimate])
	set("server.create_us", &s.tap.other[routeCreate])
	set("server.delete_us", &s.tap.other[routeDelete])
	set("wal.append_propose_us", &s.tj.propose)
	set("wal.append_commit_us", &s.tj.commit)
	set("wal.append_create_us", &s.tj.create)

	sessP, kP := w.d.propose.mean()
	sessC, kC := w.d.commit.mean()
	sessCr, kCr := w.d.create.mean()
	syncMean, kS := w.d.sync.mean()
	m.set("session.propose_us", sessP*1e6, "us", kP)
	m.set("session.commit_us", sessC*1e6, "us", kC)
	m.set("session.create_ms", sessCr*1e3, "ms", kCr)
	m.set("wal.fsync_us", syncMean*1e6, "us", kS)

	round := ratio(w.ops.rounds.sum(), n)
	codec := ratio(us(w.ops.codecTime), n)
	reqs := ratio(us(w.ops.reqTime), n)
	handler := perRound(&s.tap.round[routePropose]) + perRound(&s.tap.round[routeLabels])
	sess := ratio((w.d.propose.sum+w.d.commit.sum)*1e6, n)
	appends := perRound(&s.tj.propose) + perRound(&s.tj.commit)
	fsync := 0.0
	if s.fsync == "always" { // every commit append carries one inline fsync
		fsync = syncMean * 1e6 * ratio(float64(s.tj.commit.n.Load()), n)
	}
	m.set("client.codec_us", codec, "us", nr)
	m.set("client.transport_us", reqs-handler, "us", nr)
	m.set("server.self_us", handler-sess, "us", nr)
	m.set("session.self_us", sess-appends, "us", nr)
	m.set("wal.self_us", appends-fsync, "us", nr)
	m.set("wal.fsync_per_round_us", fsync, "us", nr)
	m.set("server.req_bytes_per_round", ratio(float64(w.ops.reqBytes), n), "B/round", nr)
	m.set("server.resp_bytes_per_round", ratio(float64(w.ops.respBytes), n), "B/round", nr)
	m.set("wal.fsyncs_per_round", ratio(float64(w.d.walSyncs), n), "1/round", nr)
	m.set("wal.records_per_round", ratio(float64(w.d.walRecords), n), "1/round", nr)
	m.set("wal_bytes_per_label", ratio(float64(w.d.walBytes), float64(w.ops.labels)), "B/label", w.ops.labels)
	m.set("runtime.alloc_kb_per_round", ratio(float64(w.d.allocBytes)/1024, n), "KiB/round", nr)
	m.set("runtime.gc_pause_ms_per_s", float64(w.d.gcPauseNs)/1e6/w.elapsed.Seconds(), "ms/s", int(w.d.gcs))
	m.set("estimate_p50_us", w.ops.estimates.median(), "us", len(w.ops.estimates))
	m.set("bench.round_us", round, "us", nr)
	m.set("bench.unattributed_us", round-codec-reqs, "us", nr)
	m.set("bench.trace_overhead_pct", (w.ops.rounds.median()/w.untracedP50-1)*100, "%", nr)
}

// acquireIters is how many warm Acquire/Release pairs the pool-store probe
// times.
const acquireIters = 2000

// probePoolStore times the pool store's public entry points directly: a
// warm Acquire/Release on the live store, and a Put of the same pool into a
// fresh store (three times, median).
func probePoolStore(cfg config, ss *serviceSetup, m *metrics) error {
	store, id := ss.s.pools, ss.wl.poolID
	start := time.Now()
	for i := 0; i < acquireIters; i++ {
		if _, err := store.Acquire(id); err != nil {
			return fmt.Errorf("acquire probe: %w", err)
		}
		store.Release(id)
	}
	m.set("poolstore.acquire_warm_us", float64(time.Since(start).Nanoseconds())/1e3/acquireIters, "us", acquireIters)
	m.set("poolstore.resident_mb", float64(store.Stats().ResidentBytes)/(1<<20), "MB", 1)

	inner := ss.built.Pool.Internal()
	var puts series
	for rep := 0; rep < 3; rep++ {
		dir := filepath.Join(cfg.dir, "put-probe-"+strconv.Itoa(rep))
		fresh, err := poolstore.Open(dir)
		if err != nil {
			return err
		}
		start := time.Now()
		if _, _, err := fresh.Put(inner.Scores, inner.Preds); err != nil {
			return fmt.Errorf("put probe: %w", err)
		}
		puts.add(ms(time.Since(start)))
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	m.set("poolstore.put_ms", puts.median(), "ms", len(puts))
	return nil
}
