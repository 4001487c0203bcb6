package server

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"oasis/internal/obs"
	"oasis/internal/trace"
)

// serverMetrics is the HTTP layer's instrumentation: one in-flight gauge
// plus, per registered route, a latency histogram and status-class
// counters. Routes are registered once (Handler wraps each handler at
// registration, since ServeMux does not expose the matched pattern to
// outer middleware) and reused if Handler is built again.
type serverMetrics struct {
	reg      *obs.Registry
	inflight *obs.Gauge

	mu     sync.Mutex
	routes map[string]*routeMetrics
}

type routeMetrics struct {
	seconds *obs.Histogram
	slow    *obs.Counter
	classes [5]*obs.Counter // index (status/100)-1: 1xx..5xx
	// disconnects counts client-disconnect dispositions (499) separately
	// from the 4xx class, so a hang-up storm does not read as client errors.
	disconnects *obs.Counter
}

func (m *serverMetrics) route(pattern string) *routeMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	if rm, ok := m.routes[pattern]; ok {
		return rm
	}
	rl := obs.Label{Name: "route", Value: pattern}
	rm := &routeMetrics{
		seconds: m.reg.Histogram("oasis_http_request_seconds", "HTTP request latency by route.", nil, rl),
		slow:    m.reg.Counter("oasis_http_slow_requests_total", "HTTP requests at or above the slow-request threshold, by route.", rl),
	}
	for i := range rm.classes {
		rm.classes[i] = m.reg.Counter("oasis_http_requests_total", "HTTP requests by route and status class.",
			rl, obs.Label{Name: "code", Value: strconv.Itoa(i+1) + "xx"})
	}
	rm.disconnects = m.reg.Counter("oasis_http_requests_total", "HTTP requests by route and status class.",
		rl, obs.Label{Name: "code", Value: "disconnect"})
	m.routes[pattern] = rm
	return rm
}

// EnableMetrics attaches a metrics registry: Handler() then serves it at
// GET /metrics, every route is instrumented (count by status class,
// latency histogram, in-flight gauge), and scrape-time collectors export
// the session shards, per-session sampler health, WAL lanes, pool store,
// and Go runtime. Call it before Handler(), after the journal and pool
// store are wired.
func (s *Server) EnableMetrics(reg *obs.Registry) {
	s.met = &serverMetrics{
		reg:      reg,
		inflight: reg.Gauge("oasis_http_in_flight_requests", "HTTP requests currently being served."),
		routes:   make(map[string]*routeMetrics),
	}
	s.registerCollectors(reg)
	s.wireAdmissionMetrics()
}

// SetVersion sets the version string advertised by /v1/stats and the
// oasis_build_info metric.
func (s *Server) SetVersion(v string) { s.version = v }

// SetAccessLog enables structured access logging: one line per request
// with a request ID (also returned in the X-Request-ID header), the
// matched route, status, byte count and duration. Requests at or above
// slow get a slow=true marker, and sampled requests carry their trace ID
// as trace=<id>. Call before Handler().
func (s *Server) SetAccessLog(l *log.Logger, slow time.Duration) {
	s.accessLog = l
	s.SetSlowRequest(slow)
}

// statusWriter captures the status code and body size a handler produced.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// instrument wraps one route's handler with request metrics, access
// logging and tracing. With none of the three enabled it returns the
// handler untouched — the hot path stays exactly as before. For an
// unsampled request under tracing, the only additions are one atomic
// sequence increment, one header compare, and a threshold compare — no
// allocations (the trace pointer stays nil end to end).
func (s *Server) instrument(pattern string, h http.HandlerFunc) http.HandlerFunc {
	if s.met == nil && s.accessLog == nil && s.trc == nil {
		return h
	}
	var rm *routeMetrics
	if s.met != nil {
		rm = s.met.route(pattern)
	}
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		if s.met != nil {
			s.met.inflight.Add(1)
		}
		sw := &statusWriter{ResponseWriter: w}
		var reqID string
		var seq uint64
		if s.accessLog != nil || s.trc != nil {
			seq = s.reqSeq.Add(1)
			if reqID = clientRequestID(r); reqID == "" {
				reqID = fmt.Sprintf("%s-%06d", s.bootID, seq)
			}
			sw.Header().Set("X-Request-ID", reqID)
		}
		tr := s.startTrace(r, seq)
		// http.handle spans the root exactly: it opens at the trace's clock
		// origin and the root duration is its end offset, so the middleware's
		// own prologue and epilogue never leave a hole in the timeline.
		hsp := tr.Begin("server", "http.handle")
		req := r
		if tr != nil {
			sw.Header().Set("Traceparent", trace.Traceparent(tr.ID(), tr.RootSpanID(), trace.FlagSampled))
			req = r.WithContext(trace.NewContext(r.Context(), tr))
		}
		if s.profLabels {
			pprof.Do(req.Context(), pprof.Labels("route", pattern), func(ctx context.Context) {
				h(sw, req.WithContext(ctx))
			})
		} else {
			h(sw, req)
		}
		rootDur := hsp.End()
		d := time.Since(start)
		slow := s.slowReq > 0 && d >= s.slowReq
		if s.met != nil {
			s.met.inflight.Add(-1)
			if tr != nil {
				// A traced request stamps its bucket's exemplar, linking the
				// latency histogram back to the trace (OpenMetrics only).
				rm.seconds.ObserveExemplar(d.Seconds(), obs.Exemplar{
					Labels: []obs.Label{{Name: "trace_id", Value: tr.ID().String()}},
					TS:     float64(start.UnixNano()) / 1e9,
				})
			} else {
				rm.seconds.Observe(d.Seconds())
			}
			if sw.status() == StatusClientClosedRequest {
				rm.disconnects.Inc()
			} else if cls := sw.status()/100 - 1; cls >= 0 && cls < len(rm.classes) {
				rm.classes[cls].Inc()
			}
			if slow {
				rm.slow.Inc()
			}
		}
		if tr != nil {
			tr.SetRequest(pattern, reqID, sw.status())
			s.trc.Finish(tr, rootDur, sw.status() >= 500)
		}
		if s.accessLog != nil {
			marks := ""
			if slow {
				marks = " slow=true"
			}
			if tr != nil {
				marks += " trace=" + tr.ID().String()
			}
			// The wire protocol the request negotiated (binary body or
			// Accept), and the shed reason when admission rejected it.
			if wantsBinary(r) || isBinaryBody(r) {
				marks += " proto=obp1"
			} else {
				marks += " proto=json"
			}
			if reason := sw.Header().Get("X-Shed-Reason"); reason != "" {
				marks += " shed=" + reason
			}
			s.accessLog.Printf("http id=%s method=%s route=%q path=%q status=%d bytes=%d dur=%s remote=%s%s",
				reqID, r.Method, pattern, r.URL.Path, sw.status(), sw.bytes, d.Round(time.Microsecond), r.RemoteAddr, marks)
		}
	}
}

// metricsHandler serves the metrics exposition: OpenMetrics 1.0 (with
// histogram exemplars) when the scraper's Accept header asks for it,
// Prometheus text 0.0.4 otherwise.
func (s *Server) metricsHandler(w http.ResponseWriter, r *http.Request) {
	if strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text") {
		w.Header().Set("Content-Type", obs.ContentTypeOpenMetrics)
		_, _ = s.met.reg.WriteOpenMetrics(w)
		return
	}
	w.Header().Set("Content-Type", obs.ContentType)
	_, _ = s.met.reg.WriteTo(w)
}

// registerCollectors declares the scrape-time families and hooks the
// collector that fills them from the live manager, journal, pool store
// and Go runtime on every scrape.
func (s *Server) registerCollectors(reg *obs.Registry) {
	reg.DeclareGauge("oasis_build_info", "Build information; the value is always 1.")
	reg.DeclareGauge("process_uptime_seconds", "Seconds since the server started.")
	reg.DeclareGauge("go_goroutines", "Live goroutines.")
	reg.DeclareGauge("go_memstats_heap_alloc_bytes", "Bytes of allocated heap objects.")
	reg.DeclareGauge("go_memstats_heap_objects", "Allocated heap objects.")
	reg.DeclareCounter("go_gc_cycles_total", "Completed GC cycles.")
	reg.DeclareCounter("go_gc_pause_seconds_total", "Total GC stop-the-world pause time.")

	reg.DeclareGauge("oasis_sessions", "Live sessions per manager shard.")

	reg.DeclareGauge("oasis_sampler_estimate", "Current F-measure estimate per session (NaN while undefined).")
	reg.DeclareGauge("oasis_sampler_asymptotic_variance", "Delta-method asymptotic variance term of the estimate; Var(F) is roughly this over the term count.")
	reg.DeclareGauge("oasis_sampler_ess", "Effective sample size of the importance weights.")
	reg.DeclareGauge("oasis_sampler_ess_ratio", "ESS over estimator terms: near 1 healthy, near 0 weight degeneracy.")
	reg.DeclareGauge("oasis_sampler_terms", "Weighted terms folded into the estimator.")
	reg.DeclareGauge("oasis_sampler_labels_committed", "Distinct labels committed per session.")
	reg.DeclareGauge("oasis_sampler_label_budget", "Session label budget (0 = unlimited).")
	reg.DeclareGauge("oasis_sampler_pending_proposals", "Live leases per session.")
	reg.DeclareGauge("oasis_sampler_health_state", "Degeneracy alarm state per session: 0 ok, 1 degraded, 2 degenerate.")
	reg.DeclareGauge("oasis_diag_series_mem_bytes", "Fixed memory held by all diagnostics series rings together.")

	reg.DeclareGauge("oasis_wal_segments", "Live segment files per journal lane.")
	reg.DeclareGauge("oasis_wal_active_segment", "Segment index the lane is appending to.")
	reg.DeclareCounter("oasis_wal_records_appended_total", "Records appended per journal lane since open.")
	reg.DeclareCounter("oasis_wal_bytes_appended_total", "Bytes appended per journal lane since open.")
	reg.DeclareCounter("oasis_wal_syncs_total", "fsync(2) calls per journal lane since open.")
	reg.DeclareGauge("oasis_wal_last_lsn", "Most recent log sequence number per lane.")
	reg.DeclareCounter("oasis_wal_compactions_total", "Successful per-shard journal compactions since open.")
	reg.DeclareCounter("oasis_wal_replay_applied_total", "Events applied by WAL recovery at the last open.")
	reg.DeclareCounter("oasis_wal_replay_skipped_total", "Events skipped by WAL recovery at the last open.")
	reg.DeclareGauge("oasis_wal_replay_torn_bytes", "Torn tail bytes dropped by WAL recovery at the last open.")
	reg.DeclareGauge("oasis_wal_failed", "1 once the journal has fail-stopped, else 0.")

	reg.DeclareGauge("oasis_pool_store_pools", "Registered pools.")
	reg.DeclareGauge("oasis_pool_store_loaded", "Pools with resident columns.")
	reg.DeclareGauge("oasis_pool_store_refs", "Live session references across all pools.")
	reg.DeclareGauge("oasis_pool_store_bytes", "Encoded size of all registered pools.")
	reg.DeclareGauge("oasis_pool_store_resident_bytes", "Estimated resident memory cost of loaded pools (heap columns + mapped files + cached strata).")
	reg.DeclareGauge("oasis_pool_store_mapped", "Pools served zero-copy off a read-only mmap.")
	reg.DeclareGauge("oasis_pool_mmap_bytes", "Bytes of pool files currently memory-mapped (page-cache governed).")
	reg.DeclareGauge("oasis_pool_store_mem_budget_bytes", "Configured resident-memory budget (0 = unlimited).")
	reg.DeclareCounter("oasis_pool_store_puts_total", "Uploads that stored a new pool.")
	reg.DeclareCounter("oasis_pool_store_dedup_hits_total", "Uploads that landed on an already-stored pool.")
	reg.DeclareCounter("oasis_pool_store_loads_total", "On-demand pool loads from disk.")
	reg.DeclareCounter("oasis_pool_evictions_total", "Evictions of resident pool columns, by reason (idle sweep vs memory budget).")
	reg.DeclareCounter("oasis_pool_store_evictions_total", "Evictions of resident pool columns (all reasons).")
	reg.DeclareCounter("oasis_pool_store_sweeps_total", "Idle-sweep passes.")
	reg.DeclareCounter("oasis_pool_store_removes_total", "Pools deleted.")
	reg.DeclareCounter("oasis_pool_strata_cache_hits_total", "Sessions that reused a cached stratification.")
	reg.DeclareCounter("oasis_pool_strata_cache_misses_total", "Sessions that computed (and cached) a stratification.")
	reg.DeclareGauge("oasis_pool_strata_cached", "Stratifications currently cached across all pools.")
	reg.DeclareGauge("oasis_pool_store_damaged_files", "Quarantined pool files (unreadable at open).")

	if s.trc != nil {
		reg.DeclareCounter("oasis_trace_recorded_total", "Requests that recorded a trace (head-sampled or forced by an inbound traceparent).")
		reg.DeclareCounter("oasis_trace_retained_slow_total", "Recorded traces retained because the request met the slow threshold.")
		reg.DeclareCounter("oasis_trace_retained_errored_total", "Recorded traces retained because the request returned a 5xx.")
		reg.DeclareCounter("oasis_trace_span_drops_total", "Spans dropped because a trace hit its fixed span capacity.")
	}

	reg.AddCollector(s.collect)
}

func (s *Server) collect(emit obs.Emit) {
	emit("oasis_build_info", 1,
		obs.Label{Name: "version", Value: s.version},
		obs.Label{Name: "goversion", Value: runtime.Version()})
	emit("process_uptime_seconds", time.Since(s.start).Seconds())
	emit("go_goroutines", float64(runtime.NumGoroutine()))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	emit("go_memstats_heap_alloc_bytes", float64(ms.HeapAlloc))
	emit("go_memstats_heap_objects", float64(ms.HeapObjects))
	emit("go_gc_cycles_total", float64(ms.NumGC))
	emit("go_gc_pause_seconds_total", float64(ms.PauseTotalNs)/1e9)

	diagMem := 0
	for shard, hs := range s.sessionHealth() {
		emit("oasis_sessions", float64(len(hs)), obs.Label{Name: "shard", Value: strconv.Itoa(shard)})
		for _, h := range hs {
			sl := obs.Label{Name: "session", Value: h.ID}
			ml := obs.Label{Name: "method", Value: string(h.Method)}
			emit("oasis_sampler_estimate", h.Estimate, sl, ml)
			emit("oasis_sampler_asymptotic_variance", h.AsymptoticVariance, sl, ml)
			emit("oasis_sampler_ess", h.ESS, sl, ml)
			emit("oasis_sampler_ess_ratio", h.ESSRatio, sl, ml)
			emit("oasis_sampler_terms", float64(h.Terms), sl, ml)
			emit("oasis_sampler_labels_committed", float64(h.LabelsCommitted), sl, ml)
			emit("oasis_sampler_label_budget", float64(h.Budget), sl, ml)
			emit("oasis_sampler_pending_proposals", float64(h.PendingProposals), sl, ml)
			emit("oasis_sampler_health_state", float64(h.State), sl, ml)
			diagMem += h.DiagMemBytes
		}
	}
	emit("oasis_diag_series_mem_bytes", float64(diagMem))

	if s.jrn != nil {
		st := s.jrn.Stats()
		for _, ln := range st.Lanes {
			ll := obs.Label{Name: "lane", Value: strconv.Itoa(ln.Lane)}
			emit("oasis_wal_segments", float64(ln.Segments), ll)
			emit("oasis_wal_active_segment", float64(ln.ActiveSegment), ll)
			emit("oasis_wal_records_appended_total", float64(ln.RecordsAppended), ll)
			emit("oasis_wal_bytes_appended_total", float64(ln.BytesAppended), ll)
			emit("oasis_wal_syncs_total", float64(ln.Syncs), ll)
			emit("oasis_wal_last_lsn", float64(ln.LastLSN), ll)
		}
		emit("oasis_wal_compactions_total", float64(st.Compactions))
		emit("oasis_wal_replay_applied_total", float64(st.ReplayApplied))
		emit("oasis_wal_replay_skipped_total", float64(st.ReplaySkipped))
		emit("oasis_wal_replay_torn_bytes", float64(st.ReplayTornBytes))
		failed := 0.0
		if s.jrn.Err() != nil {
			failed = 1
		}
		emit("oasis_wal_failed", failed)
	}

	if s.pools != nil {
		st := s.pools.Stats()
		emit("oasis_pool_store_pools", float64(st.Pools))
		emit("oasis_pool_store_loaded", float64(st.Loaded))
		emit("oasis_pool_store_refs", float64(st.Refs))
		emit("oasis_pool_store_bytes", float64(st.Bytes))
		emit("oasis_pool_store_resident_bytes", float64(st.ResidentBytes))
		emit("oasis_pool_store_mapped", float64(st.Mapped))
		emit("oasis_pool_mmap_bytes", float64(st.MmapBytes))
		emit("oasis_pool_store_mem_budget_bytes", float64(st.MemBudget))
		emit("oasis_pool_store_puts_total", float64(st.Puts))
		emit("oasis_pool_store_dedup_hits_total", float64(st.DedupHits))
		emit("oasis_pool_store_loads_total", float64(st.Loads))
		emit("oasis_pool_evictions_total", float64(st.Evictions-st.BudgetEvictions), obs.Label{Name: "reason", Value: "idle"})
		emit("oasis_pool_evictions_total", float64(st.BudgetEvictions), obs.Label{Name: "reason", Value: "budget"})
		emit("oasis_pool_store_evictions_total", float64(st.Evictions))
		emit("oasis_pool_store_sweeps_total", float64(st.Sweeps))
		emit("oasis_pool_store_removes_total", float64(st.Removes))
		emit("oasis_pool_strata_cache_hits_total", float64(st.StrataCacheHits))
		emit("oasis_pool_strata_cache_misses_total", float64(st.StrataCacheMisses))
		emit("oasis_pool_strata_cached", float64(st.StrataCached))
		emit("oasis_pool_store_damaged_files", float64(st.Damaged))
	}

	if s.trc != nil {
		ts := s.trc.Stats()
		emit("oasis_trace_recorded_total", float64(ts.Recorded))
		emit("oasis_trace_retained_slow_total", float64(ts.RetainedSlow))
		emit("oasis_trace_retained_errored_total", float64(ts.RetainedErr))
		emit("oasis_trace_span_drops_total", float64(ts.SpanDrops))
	}
}

// readRuntimeStats fills the /v1/stats runtime block.
func readRuntimeStats() RuntimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return RuntimeStats{
		GoVersion:           runtime.Version(),
		Goroutines:          runtime.NumGoroutine(),
		HeapAllocBytes:      ms.HeapAlloc,
		HeapObjects:         ms.HeapObjects,
		GCCycles:            ms.NumGC,
		GCPauseTotalSeconds: float64(ms.PauseTotalNs) / 1e9,
	}
}
