// Command oasis-server runs the OASIS evaluation service: a JSON-over-HTTP
// API for creating evaluation sessions over scored record-pair pools,
// leasing batches of pairs to label, committing crowd answers, and reading
// off F-measure estimates. See internal/server for the API surface and the
// repository README for a curl walkthrough.
//
// Usage:
//
//	oasis-server [-addr :8080] [-lease 1m] [-shards N] [-max-body bytes]
//	             [-max-propose N] [-rate-limit N] [-rate-burst N]
//	             [-session-rate-limit N] [-session-rate-burst N]
//	             [-max-inflight N] [-max-queue N] [-queue-timeout 250ms]
//	             [-pools-dir dir] [-pool-gc 10m] [-pool-mem-budget bytes]
//	             [-wal dir] [-fsync always|off|100ms] [-compact-every 10m]
//	             [-snapshot state.json] [-snapshot-interval 1m]
//	             [-pprof addr] [-access-log] [-slow-request 1s]
//	             [-trace-sample 0.01] [-diag-series N]
//	             [-diag-ess-degraded f] [-diag-ess-degenerate f]
//	             [-diag-min-labels N] [-version]
//
// -pools-dir enables the durable content-addressed pool store
// (internal/poolstore): pools uploaded once via POST /v1/pools are stored as
// immutable fsync'd files named by their content hash, any number of
// sessions reference one shared in-memory copy by poolId, and WAL create
// records/snapshots persist only the hash. Unset, the store is memory-only —
// except with -wal (defaults to <wal>/pools) or -snapshot (defaults to
// <snapshot>.pools), so recovery can always resolve the pool references its
// durable state carries. -pool-gc sweeps the
// in-memory columns of pools no session has referenced for one interval
// (the durable files stay; the next use reloads them). -pool-mem-budget
// additionally caps the store's resident pool memory (heap columns, mmap'd
// files and cached strata) in bytes: crossing the budget evicts
// least-recently-used unreferenced pools immediately, without waiting for
// the idle sweep. On linux/{amd64,arm64} cold pools are served zero-copy off
// a read-only mmap of the pool file (see the README's "Memory & zero-copy"
// section); elsewhere they are decoded streaming. -max-body bounds
// every HTTP request body (413 beyond it).
//
// -shards splits the session manager into N independent lock domains
// (rounded up to a power of two; default: an existing WAL directory's
// recorded lane count, else the next power of two at or above GOMAXPROCS),
// so requests for sessions in different shards never contend on one lock.
// With -wal, each shard journals to its own WAL lane, so commit fsyncs in
// different shards overlap too. A WAL directory's lane count is fixed when
// it is first created: an explicit -shards must match it on reopen. A
// directory holding a pre-lane (v1) journal file is refused at startup.
//
// Durability comes in two exclusive modes:
//
//   - -wal enables the write-ahead label journal (internal/wal): every
//     session lifecycle event is appended — and, per -fsync, synced — before
//     it is acknowledged, and startup replays snapshot+tail so even a
//     kill -9 loses no acknowledged label. -compact-every folds cold
//     segments into a snapshot on an interval.
//
//   - -snapshot restores every session from the file at startup (if it
//     exists) and writes all sessions back on graceful shutdown
//     (SIGINT/SIGTERM). -snapshot-interval additionally saves atomically on
//     an interval, so a crash loses at most one interval of labels.
//
// The hot propose/labels/estimate round trip also speaks a compact binary
// protocol negotiated per request (Accept / Content-Type:
// application/x-oasis-bin; see the README's "Wire protocol & overload
// behavior" section); plain JSON clients are unaffected. -max-propose caps
// a single propose batch (400 beyond it). The -rate-limit /
// -session-rate-limit token buckets answer excess hot-path requests with
// 429 + Retry-After, and -max-inflight bounds concurrently served hot
// requests — excess requests queue (up to -max-queue, for at most
// -queue-timeout) and are then shed with 503, so goroutine count and
// queueing delay stay bounded at any offered load. Ops routes (healthz,
// metrics, stats, traces) are never shed. Rejections are counted in
// oasis_http_rejected_total{reason}.
//
// With -pprof, a net/http/pprof debug server listens on the given address
// (e.g. localhost:6060) for live CPU/heap profiling of the serving hot path:
//
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=10
//
// Observability is always on: GET /metrics serves Prometheus text
// exposition covering HTTP routes, session shards, WAL lanes, the pool
// store, and per-session sampler health (see the README's Observability
// section). -access-log logs one line per request with a request ID;
// requests at or above -slow-request are tagged slow=true. -version
// prints the build version and exits.
//
// Convergence diagnostics are always on too: every commit batch appends one
// point (estimate, asymptotic variance, ESS ratio, labels, wall time) to a
// fixed-capacity per-session ring that downsamples itself in place, so a
// million-label session still costs a few kilobytes. GET
// /v1/sessions/{id}/diagnostics serves the series plus per-stratum health;
// GET /debug/dashboard renders every live session with inline SVG
// sparklines, no external assets. Degeneracy alarms walk each session
// through ok/degraded/degenerate as its ESS ratio crosses the -diag-ess-*
// thresholds (with hysteresis on recovery), exported per session as
// oasis_sampler_health_state, logged once per transition, and stamped on
// the committing request's trace. -diag-series resizes the ring;
// -diag-min-labels suppresses alarms for young sessions.
//
// Request tracing is also always on: a -trace-sample fraction of requests
// (plus every request carrying a sampled W3C traceparent header) records a
// span timeline across all five layers — server middleware, session
// manager (shard-lock wait/hold, create barriers), sampler
// (propose/commit, v(t) rebuilds), WAL (append vs fsync per lane) and
// pool store (acquire mmap/decode, strata cache) — with no allocations on
// unsampled requests. Completed traces land in two lock-free rings (the
// last N, plus every slow or 5xx trace) served at GET /debug/traces and
// GET /debug/traces/{id}. Request IDs, trace IDs and access-log lines all
// share one random-per-boot 64-bit prefix, so any one of them greps to
// the others; with -pprof, handlers additionally run under pprof labels
// (route, shard, WAL sync lane) so CPU profiles slice along the same axes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"syscall"
	"time"

	"oasis/internal/diag"
	"oasis/internal/obs"
	"oasis/internal/poolstore"
	"oasis/internal/server"
	"oasis/internal/session"
	"oasis/internal/trace"
	"oasis/internal/wal"
)

// version is the release string baked in via
// `-ldflags "-X main.version=..."`; empty builds fall back to the
// module version recorded by the Go toolchain.
var version string

func buildVersion() string {
	if version != "" {
		return version
	}
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		return bi.Main.Version
	}
	return "devel"
}

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		lease        = flag.Duration("lease", session.DefaultLeaseTTL, "default proposal lease TTL")
		shards       = flag.Int("shards", 0, "session-manager shard count, rounded up to a power of two (0 = derive from GOMAXPROCS); with -wal, must match the directory's lane count once created")
		snapshot     = flag.String("snapshot", "", "snapshot file: restored at startup, saved at shutdown (exclusive with -wal)")
		snapInterval = flag.Duration("snapshot-interval", 0, "with -snapshot: also save atomically every interval (0 = only at graceful shutdown)")
		walDir       = flag.String("wal", "", "write-ahead-log directory: replayed at startup, appended before every acknowledgement (exclusive with -snapshot)")
		fsync        = flag.String("fsync", "always", `WAL fsync policy: "always", "off", or a sync interval like 100ms`)
		compactEvery = flag.Duration("compact-every", 0, "with -wal: fold cold WAL segments into a snapshot every interval (0 = never)")
		poolsDir     = flag.String("pools-dir", "", "directory for the durable content-addressed pool store (empty = in-memory; defaults to <wal>/pools with -wal, <snapshot>.pools with -snapshot)")
		poolGC       = flag.Duration("pool-gc", 0, "evict the in-memory copy of pools unreferenced for this long, checked on the same interval (0 = never)")
		poolMemBud   = flag.Int64("pool-mem-budget", 0, "resident pool memory budget in bytes: evict least-recently-used unreferenced pools (columns, mappings, cached strata) when over it (0 = unlimited)")
		maxBody      = flag.Int64("max-body", server.DefaultMaxBodyBytes, "maximum HTTP request body size in bytes (413 beyond it)")
		maxPropose   = flag.Int("max-propose", server.DefaultMaxPropose, "maximum ?n= batch size a single propose may request (400 beyond it)")
		rateLimit    = flag.Float64("rate-limit", 0, "global hot-path request rate limit in requests/second; beyond it 429 with Retry-After (0 = unlimited)")
		rateBurst    = flag.Int("rate-burst", 0, "global rate-limit burst depth (0 = derive from -rate-limit)")
		sessRate     = flag.Float64("session-rate-limit", 0, "per-session hot-path rate limit in requests/second, so one degenerate session cannot starve the rest (0 = unlimited)")
		sessBurst    = flag.Int("session-rate-burst", 0, "per-session rate-limit burst depth (0 = derive from -session-rate-limit)")
		maxInFlight  = flag.Int("max-inflight", 0, "maximum hot-path requests served at once; excess requests queue up to -max-queue then 503 (0 = unbounded)")
		maxQueue     = flag.Int("max-queue", 0, "with -max-inflight: how many requests may wait for a slot before immediate 503 (0 = no queue)")
		queueTimeout = flag.Duration("queue-timeout", server.DefaultQueueTimeout, "with -max-inflight: longest a queued request waits for a slot before 503")
		pprofAddr    = flag.String("pprof", "", "listen address for the net/http/pprof debug server (empty = disabled)")
		accessLog    = flag.Bool("access-log", false, "log one line per HTTP request, with request ID, route, status, and latency")
		slowReq      = flag.Duration("slow-request", time.Second, "latency at or above which a request counts as slow: tagged slow=true in the access log, counted per route in metrics, and its trace always retained (0 = never)")
		traceSample  = flag.Float64("trace-sample", trace.DefaultSampleRate, "fraction of requests to record a span timeline for (0 = only requests with a sampled inbound traceparent; 1 = all); see GET /debug/traces")
		diagSeries   = flag.Int("diag-series", 0, "per-session convergence-diagnostics ring capacity in retained points; older points are downsampled in place, memory stays fixed (0 = default)")
		diagDegraded = flag.Float64("diag-ess-degraded", 0, "ESS ratio below which a session's sampler health is degraded (0 = default 0.3, negative disables)")
		diagDegen    = flag.Float64("diag-ess-degenerate", 0, "ESS ratio below which a session's sampler health is degenerate (0 = default 0.05, negative disables)")
		diagMinLab   = flag.Int("diag-min-labels", 0, "suppress sampler-health alarms until a session holds this many labels (0 = default 50)")
		showVersion  = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Printf("oasis-server %s %s %s/%s\n", buildVersion(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
		return
	}
	if *walDir != "" && *snapshot != "" {
		log.Fatalf("-wal and -snapshot are exclusive durability modes; pick one")
	}
	if *snapInterval > 0 && *snapshot == "" {
		log.Fatalf("-snapshot-interval requires -snapshot")
	}
	if *compactEvery > 0 && *walDir == "" {
		log.Fatalf("-compact-every requires -wal")
	}

	if *pprofAddr != "" {
		go func() {
			log.Printf("pprof listening on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof server: %v", err)
			}
		}()
	}

	nShards := *shards
	if nShards <= 0 {
		// Unset: prefer an existing journal's recorded lane count (the lane
		// count is fixed per directory, and GOMAXPROCS may have changed since
		// it was created); otherwise derive from the hardware.
		nShards = session.DefaultShards()
		if *walDir != "" {
			lanes, err := wal.DirLanes(*walDir)
			if err != nil {
				log.Fatalf("read wal meta: %v", err)
			}
			if lanes > 0 {
				nShards = lanes
			}
		}
	}
	// The pool store opens before the manager and the WAL: replayed create
	// records resolve their pool references through it. With a durability
	// mode but no explicit -pools-dir, pools persist next to the journal or
	// snapshot — durable state that outlives its pools could never be
	// restored.
	if *poolsDir == "" && *walDir != "" {
		*poolsDir = filepath.Join(*walDir, "pools")
	}
	if *poolsDir == "" && *snapshot != "" {
		*poolsDir = *snapshot + ".pools"
	}
	pools, err := poolstore.Open(*poolsDir)
	if err != nil {
		log.Fatalf("open pool store: %v", err)
	}
	switch {
	case *poolsDir != "":
		log.Printf("pool store %s: %d pool(s) indexed", *poolsDir, pools.Len())
	default:
		log.Printf("pool store: in-memory (set -pools-dir to persist pools)")
	}
	if damaged := pools.Damaged(); len(damaged) > 0 {
		log.Printf("pool store: quarantined %d unreadable pool file(s) (left on disk, inspect and remove): %v", len(damaged), damaged)
	}
	if *poolMemBud > 0 {
		if !pools.Durable() {
			// A memory-only store holds the only copy of every pool, so
			// nothing can ever be evicted from it.
			log.Fatalf("-pool-mem-budget requires a durable pool store (set -pools-dir, -wal or -snapshot)")
		}
		pools.SetMemBudget(*poolMemBud)
		log.Printf("pool store: resident memory budget %d bytes (LRU eviction of unreferenced pools)", *poolMemBud)
	}

	// Metrics are always on: the instruments are atomic counters with no
	// hot-path allocations, so there is nothing worth a flag to save.
	reg := obs.NewRegistry()
	mgr := session.NewManager(session.ManagerOptions{
		DefaultLeaseTTL: *lease, Shards: nShards, Pools: pools,
		Metrics: session.NewMetrics(reg, nShards),
		Diag: session.DiagOptions{
			SeriesCapacity: *diagSeries,
			Thresholds: diag.Thresholds{
				ESSDegraded:   *diagDegraded,
				ESSDegenerate: *diagDegen,
				MinLabels:     *diagMinLab,
			},
		},
	})
	log.Printf("session manager sharded %d way(s)", mgr.Shards())
	var journal *wal.Journal
	switch {
	case *walDir != "":
		j, err := wal.Open(*walDir, mgr, wal.Options{Fsync: *fsync, Metrics: wal.NewMetrics(reg)})
		if err != nil {
			log.Fatalf("open wal: %v", err)
		}
		journal = j
		st := j.Stats()
		log.Printf("wal %s: recovered %d session(s) across %d lane(s) — snapshot=%v, %d event(s) replayed, %d skipped, %d torn byte(s) dropped (fsync %s)",
			*walDir, mgr.Len(), st.LaneCount, st.ReplaySnapshot, st.ReplayApplied, st.ReplaySkipped, st.ReplayTornBytes, *fsync)
	case *snapshot != "":
		data, err := os.ReadFile(*snapshot)
		switch {
		case errors.Is(err, os.ErrNotExist):
			log.Printf("snapshot %s not found, starting empty", *snapshot)
		case err != nil:
			log.Fatalf("read snapshot: %v", err)
		default:
			if err := mgr.Restore(data); err != nil {
				log.Fatalf("restore snapshot: %v", err)
			}
			log.Printf("restored %d session(s) from %s", mgr.Len(), *snapshot)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Background maintenance tickers. They are joined (tickers is waited on)
	// after Serve returns, so a periodic snapshot can never race the final
	// shutdown save and clobber it with stale state, and no compaction runs
	// against a closing journal.
	var tickers sync.WaitGroup
	if journal != nil && *compactEvery > 0 {
		tickers.Add(1)
		go func() {
			defer tickers.Done()
			t := time.NewTicker(*compactEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if err := journal.Compact(); err != nil {
						log.Printf("wal compact: %v", err)
					} else {
						log.Printf("wal compacted (%d segment(s) live)", journal.Stats().Segments)
					}
				}
			}
		}()
	}
	if *poolGC > 0 {
		tickers.Add(1)
		go func() {
			defer tickers.Done()
			t := time.NewTicker(*poolGC)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if n := pools.Sweep(*poolGC); n > 0 {
						log.Printf("pool store: evicted %d idle pool(s) from memory", n)
					}
				}
			}
		}()
	}
	if *snapInterval > 0 {
		tickers.Add(1)
		go func() {
			defer tickers.Done()
			t := time.NewTicker(*snapInterval)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if err := saveSnapshot(mgr, *snapshot); err != nil {
						log.Printf("periodic snapshot: %v", err)
					}
				}
			}
		}()
	}

	srv := server.New(mgr)
	if journal != nil {
		srv.SetJournal(journal)
	}
	srv.SetPools(pools)
	srv.SetMaxBodyBytes(*maxBody)
	srv.SetMaxPropose(*maxPropose)
	if *rateLimit > 0 || *sessRate > 0 || *maxInFlight > 0 {
		srv.SetAdmission(server.AdmissionConfig{
			RatePerSec:        *rateLimit,
			Burst:             *rateBurst,
			SessionRatePerSec: *sessRate,
			SessionBurst:      *sessBurst,
			MaxInFlight:       *maxInFlight,
			MaxQueue:          *maxQueue,
			QueueTimeout:      *queueTimeout,
		})
		log.Printf("admission control: rate-limit=%v/s session-rate-limit=%v/s max-inflight=%d max-queue=%d queue-timeout=%s",
			*rateLimit, *sessRate, *maxInFlight, *maxQueue, *queueTimeout)
	}
	srv.SetVersion(buildVersion())
	// Tracing is always on (unsampled requests cost nothing on the hot
	// path) and must be enabled before the metrics registry so the trace
	// counter families are declared. A flag value of 0 disables head
	// sampling but still honors inbound sampled traceparent headers.
	rate := *traceSample
	if rate == 0 {
		rate = -1
	}
	srv.EnableTracing(trace.NewCollector(trace.Options{SampleRate: rate, Slow: *slowReq}))
	srv.SetSlowRequest(*slowReq)
	if *pprofAddr != "" {
		srv.EnableProfileLabels()
	}
	srv.EnableMetrics(reg)
	if *accessLog {
		srv.SetAccessLog(log.Default(), *slowReq)
	}
	if *snapshot != "" {
		// Persist a fresh snapshot before any pool delete: once it is on
		// disk, no durable state references the pool about to go, so a crash
		// can never strand a snapshot that names a deleted pool (which would
		// make it unrestorable — snapshot mode has no journal tail to absolve
		// the reference the way WAL replay does).
		srv.SetPoolDeleteBarrier(func() error { return saveSnapshot(mgr, *snapshot) })
	}
	ready := make(chan string, 1)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ctx, *addr, ready) }()
	select {
	case bound := <-ready:
		log.Printf("oasis-server listening on %s (lease TTL %s)", bound, *lease)
	case err := <-errCh:
		log.Fatalf("serve: %v", err)
	}
	if err := <-errCh; err != nil {
		log.Fatalf("serve: %v", err)
	}
	tickers.Wait()

	if journal != nil {
		if err := journal.Close(); err != nil {
			log.Fatalf("close wal: %v", err)
		}
		log.Printf("wal synced and closed")
	}
	if *snapshot != "" {
		if err := saveSnapshot(mgr, *snapshot); err != nil {
			log.Fatalf("save snapshot: %v", err)
		}
		log.Printf("saved %d session(s) to %s", mgr.Len(), *snapshot)
	}
	log.Printf("bye")
}

// saveSnapshot writes the manager state atomically and durably: temp file in
// the same directory, fsync, rename into place, fsync the directory; the
// temp file is removed on failure.
func saveSnapshot(mgr *session.Manager, path string) error {
	data, err := mgr.Snapshot()
	if err != nil {
		return err
	}
	return wal.WriteFileAtomic(path, data, 0o644)
}
