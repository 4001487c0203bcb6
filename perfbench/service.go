package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"oasis"
	"oasis/erbench"
	"oasis/internal/obs"
	"oasis/internal/poolstore"
	"oasis/internal/server"
	"oasis/internal/session"
	"oasis/internal/trace"
	"oasis/internal/wal"
)

// servicePool is the dataset both service workloads label: the paper's
// most imbalanced pool (676,267 pairs at 3381:1 at scale 1).
const servicePool = "Amazon-GoogleProducts"

// svc is one in-process service, wired as cmd/oasis-server wires it at its
// defaults with -wal dir: metrics on, tracing at trace.DefaultSampleRate,
// the durable pool store under <wal>/pools, default shard count.
type svc struct {
	dir    string
	fsync  string
	pools  *poolstore.Store
	smet   *session.Metrics
	wmet   *wal.Metrics
	mgr    *session.Manager
	jrn    *wal.Journal
	tap    *tap          // nil unless the run is traced
	tj     *timedJournal // nil unless the run is traced or injects a fault
	hs     *http.Server
	served chan error
	base   string
}

func startSvc(dir, fsync string, traced bool, dropCommit int) (*svc, error) {
	shards := session.DefaultShards()
	pools, err := poolstore.Open(filepath.Join(dir, "pools"))
	if err != nil {
		return nil, fmt.Errorf("open pool store: %w", err)
	}
	reg := obs.NewRegistry()
	s := &svc{dir: dir, fsync: fsync, pools: pools, smet: session.NewMetrics(reg, shards), wmet: wal.NewMetrics(reg)}
	s.mgr = session.NewManager(session.ManagerOptions{
		DefaultLeaseTTL: session.DefaultLeaseTTL, Shards: shards, Pools: pools, Metrics: s.smet,
	})
	s.jrn, err = wal.Open(dir, s.mgr, wal.Options{Fsync: fsync, Metrics: s.wmet})
	if err != nil {
		return nil, fmt.Errorf("open wal: %w", err)
	}
	if traced || dropCommit > 0 {
		s.tj = &timedJournal{j: s.jrn, drop: int64(dropCommit)}
		s.mgr.SetJournal(s.tj)
	}
	srv := server.New(s.mgr)
	srv.SetJournal(s.jrn)
	srv.SetPools(pools)
	srv.SetVersion("perfbench")
	srv.EnableTracing(trace.NewCollector(trace.Options{SampleRate: trace.DefaultSampleRate, Slow: time.Second}))
	srv.SetSlowRequest(time.Second)
	srv.EnableMetrics(reg)
	var h http.Handler = srv.Handler()
	if traced {
		s.tap = &tap{next: h}
		h = s.tap
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.jrn.Close()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: h}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the HTTP server down, waits for it, and closes the journal.
func (s *svc) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), server.ShutdownGrace)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := s.jrn.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("close wal: %w", cerr)
	}
	return err
}

// client issues requests and accounts for every one it attempts.
type client struct {
	hc   *http.Client
	base string
}

// call sends one request and reads the whole response body, reporting the
// time from send to last body byte. round tags the request for the
// handler wrapper, so per-round handler sums cover exactly the requests
// inside a timed round.
func (c *client) call(method, path, ctype, accept string, body []byte, round bool) (int, []byte, time.Duration, error) {
	var rd io.Reader = http.NoBody
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	if round {
		req.Header.Set(roundHeader, "1")
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, time.Since(start), err
}

// opStats is what the client side of one phase observed.
type opStats struct {
	rounds    series // µs, propose + labels
	estimates series // µs, estimate reads
	creates   series // ms, session creates
	labels    int    // acknowledged fresh labels
	attempted int
	failed    int
	reqTime   time.Duration // round requests, send to last byte
	codecTime time.Duration // client-side encode/decode inside rounds
	reqBytes  int
	respBytes int
	problems  []string // correctness failures
	failures  []string // the first failed operations, for the report
}

func (o *opStats) merge(x *opStats) {
	o.rounds = append(o.rounds, x.rounds...)
	o.estimates = append(o.estimates, x.estimates...)
	o.creates = append(o.creates, x.creates...)
	o.labels += x.labels
	o.attempted += x.attempted
	o.failed += x.failed
	o.reqTime += x.reqTime
	o.codecTime += x.codecTime
	o.reqBytes += x.reqBytes
	o.respBytes += x.respBytes
	o.problems = append(o.problems, x.problems...)
	o.failures = append(o.failures, x.failures...)
}

func (o *opStats) problem(format string, args ...any) {
	if len(o.problems) < 10 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// ok accounts for one finished request: a transport error or a non-2xx
// status counts as failed (ok_ratio), which is not by itself incorrect.
func (o *opStats) ok(code int, err error, what string) bool {
	o.attempted++
	if err != nil || code < 200 || code > 299 {
		o.failed++
		if len(o.failures) < 10 {
			o.failures = append(o.failures, fmt.Sprintf("%s: status %d, err %v", what, code, err))
		}
		return false
	}
	return true
}

// workload is the shared, read-only context of a service run's workers.
type workload struct {
	cfg       config
	binary    bool // OBP1 hot path (nosync-bin) instead of JSON
	budgeted  bool // sessions carry cfg.budget; else the client retires them at cfg.retireAt
	c         *client
	poolID    string
	truth     []bool
	calib     bool
	threshold float64
}

// worker owns its sessions exclusively, so every proposal it leases is
// labelled by it before the lease could expire.
type worker struct {
	w      *workload
	idx    int
	ids    []string
	acked  map[string]int // labels acknowledged per session
	next   int
	gen    int
	st     opStats
	req    server.LabelsRequest
	frame  []byte
	pr     server.ProposeResponse
	lr     server.LabelsResponse
	status session.Status
}

func sessionSeed(seed uint64, worker, gen int) uint64 {
	return seed*1_000_003 + uint64(worker)*10_007 + uint64(gen)
}

// create makes a fresh session for slot i (appending when i == len(ids)).
func (wk *worker) create(i int) bool {
	wk.gen++
	id := "w" + strconv.Itoa(wk.idx) + "-" + strconv.Itoa(wk.gen)
	cfg := session.Config{
		ID: id, PoolID: wk.w.poolID, Calibrated: wk.w.calib, Threshold: wk.w.threshold,
		Options: oasis.Options{Seed: sessionSeed(wk.w.cfg.seed, wk.idx, wk.gen)},
	}
	if wk.w.budgeted {
		cfg.Budget = wk.w.cfg.budget
	}
	body, err := json.Marshal(cfg)
	if err != nil {
		wk.st.problem("encode session config: %v", err)
		return false
	}
	code, _, d, err := wk.w.c.call("POST", "/v1/sessions", "application/json", "", body, false)
	if !wk.st.ok(code, err, "create session") {
		return false
	}
	wk.st.creates.add(ms(d))
	if i == len(wk.ids) {
		wk.ids = append(wk.ids, id)
	} else {
		wk.ids[i] = id
	}
	wk.acked[id] = 0
	return true
}

// step runs one round on the worker's next session, or churns the session
// when its budget is spent.
func (wk *worker) step() {
	i := wk.next
	wk.next = (wk.next + 1) % len(wk.ids)
	id := wk.ids[i]
	limit := wk.w.cfg.retireAt
	if wk.w.budgeted {
		limit = wk.w.cfg.budget
	}
	if wk.acked[id] >= limit {
		wk.churn(i, id)
		return
	}
	wk.round(id)
}

func (wk *worker) round(id string) {
	w, st := wk.w, &wk.st
	var accept string
	if w.binary {
		accept = server.ContentTypeBinary
	}
	start := time.Now()
	code, data, d, err := w.c.call("GET", "/v1/sessions/"+id+"/propose?n="+strconv.Itoa(w.cfg.batch), "", accept, nil, true)
	if !st.ok(code, err, "propose") {
		return
	}
	reqTime, respBytes := d, len(data)
	c0 := time.Now()
	wk.pr.Proposals, wk.pr.Exhausted = wk.pr.Proposals[:0], false
	if w.binary {
		err = server.DecodeProposeResponse(data, &wk.pr)
	} else {
		err = json.Unmarshal(data, &wk.pr)
	}
	if err != nil {
		st.problem("decode propose: %v", err)
		return
	}
	wk.req.Labels = wk.req.Labels[:0]
	for _, p := range wk.pr.Proposals {
		wk.req.Labels = append(wk.req.Labels, server.Label{Pair: p.Pair, Label: w.truth[p.Pair]})
	}
	var ctype string
	if w.binary {
		wk.frame = server.AppendLabelsRequest(wk.frame[:0], &wk.req)
		ctype = server.ContentTypeBinary
	} else {
		wk.frame, err = json.Marshal(&wk.req)
		ctype = "application/json"
	}
	codec := time.Since(c0)
	if err != nil {
		st.problem("encode labels: %v", err)
		return
	}
	if wk.pr.Exhausted || len(wk.req.Labels) != w.cfg.batch {
		st.problem("session %s: propose returned %d of %d pairs (exhausted=%v) with budget left", id, len(wk.req.Labels), w.cfg.batch, wk.pr.Exhausted)
		return
	}
	code, data, d, err = w.c.call("POST", "/v1/sessions/"+id+"/labels", ctype, accept, wk.frame, true)
	if !st.ok(code, err, "labels") {
		return
	}
	reqTime += d
	respBytes += len(data)
	c0 = time.Now()
	wk.lr.Results, wk.lr.Committed = wk.lr.Results[:0], 0
	if w.binary {
		err = server.DecodeLabelsResponse(data, &wk.lr)
	} else {
		err = json.Unmarshal(data, &wk.lr)
	}
	codec += time.Since(c0)
	if err != nil {
		st.problem("decode labels response: %v", err)
		return
	}
	st.rounds.addDur(time.Since(start))
	st.reqTime += reqTime
	st.codecTime += codec
	st.reqBytes += len(wk.frame)
	st.respBytes += respBytes
	if wk.lr.Committed != len(wk.req.Labels) {
		st.problem("session %s: labels POST committed %d of %d sent", id, wk.lr.Committed, len(wk.req.Labels))
	}
	st.labels += wk.lr.Committed
	wk.acked[id] += wk.lr.Committed
	if w.binary {
		wk.readEstimate(id, "/v1/sessions/"+id+"/estimate")
	}
}

// readEstimate times one estimate read and checks the label count it
// reports against the labels this worker had acknowledged.
func (wk *worker) readEstimate(id, path string) {
	w, st := wk.w, &wk.st
	var accept string
	if w.binary {
		accept = server.ContentTypeBinary
	}
	code, data, d, err := w.c.call("GET", path, "", accept, nil, false)
	if !st.ok(code, err, "estimate") {
		return
	}
	c0 := time.Now()
	wk.status = session.Status{}
	if w.binary {
		err = server.DecodeEstimateResponse(data, &wk.status)
	} else {
		err = json.Unmarshal(data, &wk.status)
	}
	st.estimates.addDur(d + time.Since(c0))
	switch {
	case err != nil:
		st.problem("decode estimate: %v", err)
	case wk.status.LabelsCommitted != wk.acked[id]:
		st.problem("session %s: estimate reports %d labels, %d acknowledged", id, wk.status.LabelsCommitted, wk.acked[id])
	}
}

// churn retires a session: a budgeted one must first report exhaustion
// on propose. Then a status read, a delete, and a fresh session in its
// slot.
func (wk *worker) churn(i int, id string) {
	w, st := wk.w, &wk.st
	if w.budgeted {
		code, data, _, err := w.c.call("GET", "/v1/sessions/"+id+"/propose?n="+strconv.Itoa(w.cfg.batch), "", "", nil, false)
		if !st.ok(code, err, "propose") {
			return
		}
		wk.pr.Proposals, wk.pr.Exhausted = wk.pr.Proposals[:0], false
		if err := json.Unmarshal(data, &wk.pr); err != nil || !wk.pr.Exhausted {
			st.problem("session %s: spent budget but propose did not report exhausted (err %v)", id, err)
			return
		}
		wk.readEstimate(id, "/v1/sessions/"+id)
	}
	code, _, _, err := w.c.call("DELETE", "/v1/sessions/"+id, "", "", nil, false)
	if !st.ok(code, err, "delete session") {
		return
	}
	delete(wk.acked, id)
	wk.create(i)
}

// phase runs the closed loop for d and returns what the workers observed
// and the wall time from start to the last worker's stop.
func phase(workers []*worker, d time.Duration) (opStats, time.Duration) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	start := time.Now()
	for _, wk := range workers {
		wk.st = opStats{}
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					wk.step()
				}
			}
		}(wk)
	}
	time.Sleep(d)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)
	var all opStats
	for _, wk := range workers {
		all.merge(&wk.st)
	}
	return all, elapsed
}

// serviceSetup is one complete set-up: build the pool, start the service,
// upload the pool once, create the sessions.
type serviceSetup struct {
	s       *svc
	built   *erbench.BuiltPool
	workers []*worker
	wl      *workload
	build   time.Duration
	total   time.Duration
	ops     opStats
}

func newServiceSetup(cfg config, dir string) (*serviceSetup, error) {
	start := time.Now()
	built, err := erbench.BuildPool(servicePool, erbench.PoolConfig{Scale: cfg.scale, Seed: datasetSeed})
	if err != nil {
		return nil, fmt.Errorf("build pool: %w", err)
	}
	build := time.Since(start)
	fsync := "always"
	if cfg.workload == "nosync-bin" {
		fsync = "off"
	}
	s, err := startSvc(dir, fsync, cfg.trace, cfg.dropCommit)
	if err != nil {
		return nil, err
	}
	inner := built.Pool.Internal()
	wl := &workload{
		cfg: cfg, binary: cfg.workload == "nosync-bin", budgeted: cfg.workload == "durable-json",
		c:     &client{hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}, base: s.base},
		calib: inner.Probabilistic, threshold: inner.Threshold,
	}
	wl.truth = make([]bool, len(built.TruthProb))
	for i, p := range built.TruthProb {
		wl.truth[i] = p >= 0.5
	}
	ss := &serviceSetup{s: s, built: built, wl: wl, build: build}
	body, err := json.Marshal(server.PoolUploadRequest{Scores: inner.Scores, Preds: inner.Preds})
	if err != nil {
		s.stop()
		return nil, err
	}
	code, data, _, err := wl.c.call("POST", "/v1/pools", "application/json", "", body, false)
	var up server.PoolResponse
	if ss.ops.ok(code, err, "upload pool") {
		err = json.Unmarshal(data, &up)
	}
	if err != nil || up.PoolID == "" {
		s.stop()
		return nil, fmt.Errorf("upload pool: status %d: %v %s", code, err, data)
	}
	wl.poolID = up.PoolID
	nw := runtime.NumCPU()
	for i := 0; i < nw; i++ {
		ss.workers = append(ss.workers, &worker{w: wl, idx: i, acked: map[string]int{}})
	}
	for k := 0; k < cfg.sessions; k++ {
		wk := ss.workers[k%nw]
		if !wk.create(len(wk.ids)) {
			s.stop()
			return nil, fmt.Errorf("create session: %v", append(wk.st.failures, wk.st.problems...))
		}
	}
	for _, wk := range ss.workers {
		ss.ops.merge(&wk.st)
		wk.st = opStats{}
	}
	ss.total = time.Since(start)
	return ss, nil
}

func (ss *serviceSetup) close() error {
	ss.wl.c.hc.CloseIdleConnections()
	return ss.s.stop()
}

// runService runs durable-json or nosync-bin.
func runService(cfg config, out io.Writer) (*result, error) {
	res := &result{}
	var setupTimes, buildTimes series
	var all opStats // every operation of the run
	var ss *serviceSetup
	for rep := 0; rep < cfg.setupReps; rep++ {
		dir := filepath.Join(cfg.dir, "setup-"+strconv.Itoa(rep))
		x, err := newServiceSetup(cfg, dir)
		if err != nil {
			return nil, err
		}
		setupTimes.add(x.total.Seconds())
		buildTimes.add(x.build.Seconds())
		all.merge(&x.ops)
		if rep == cfg.setupReps-1 {
			ss = x
			break
		}
		// Earlier set-ups are timed only: stop them and drop their files.
		if err := x.close(); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	closed := false
	defer func() {
		if !closed { // an error return left the service running
			ss.close()
		}
	}()
	fmt.Fprintf(out, "setup    %d x %.3fs median (pool build %.3fs median)\n", len(setupTimes), setupTimes.median(), buildTimes.median())

	if !resetPeakRSS() {
		fmt.Fprintln(out, "note     peak RSS could not be reset: max_rss_mb includes set-up")
	}
	warm, _ := phase(ss.workers, cfg.warmup)
	all.merge(&warm)

	if cfg.trace {
		// Alternate one-second untraced and traced slices, so the tracing
		// overhead is measured against the same stretch of the run.
		w := &layerWindow{}
		var untraced opStats
		for i := 0; i < max(1, int(cfg.measure/time.Second)); i++ {
			o, _ := phase(ss.workers, time.Second)
			untraced.merge(&o)
			ss.s.tap.on.Store(true)
			ss.s.tj.on.Store(true)
			before := snapshotCounters(ss.s)
			o, el := phase(ss.workers, time.Second)
			w.d = w.d.plus(snapshotCounters(ss.s).since(before))
			ss.s.tap.on.Store(false)
			ss.s.tj.on.Store(false)
			w.ops.merge(&o)
			w.elapsed += el
		}
		all.merge(&untraced)
		all.merge(&w.ops)
		w.untracedP50 = untraced.rounds.median()
		res.layers.set("round_p99_us", untraced.rounds.quantile(0.99), "us", len(untraced.rounds))
		creates := append(untraced.creates, w.ops.creates...)
		res.layers.set("create_p50_ms", creates.median(), "ms", len(creates))
		w.ledger(ss.s, &res.layers)
		if err := probeLayers(cfg, ss, &res.layers); err != nil {
			return nil, err
		}
		res.layers.set("erbench.build_pool_s", buildTimes.median(), "s", len(buildTimes))
	} else {
		// The run is measured in one-second windows, each with the host's
		// CPU steal over it (the share of the machine another guest took).
		// round_p50_us, round_p90_us, labels_per_s (the median window rate)
		// and create_p50_ms come from the windows whose steal is at most the
		// median window's, so a noisy neighbour on a shared host moves them
		// less; the report also prints the round figures over every window.
		type window struct {
			o     opStats
			el    time.Duration
			steal float64
		}
		before := snapshotCounters(ss.s)
		var measured opStats
		var wins []window
		var steals series
		for i := 0; i < max(1, int(cfg.measure/time.Second)); i++ {
			t0, s0 := cpuTicks()
			o, el := phase(ss.workers, time.Second)
			t1, s1 := cpuTicks()
			w := window{o, el, 100 * ratio(float64(s1-s0), float64(t1-t0))}
			wins = append(wins, w)
			steals.add(w.steal)
			measured.merge(&o)
		}
		d := snapshotCounters(ss.s).since(before)
		var quiet opStats
		var rates, allRates series
		for _, w := range wins {
			rate := float64(w.o.labels) / w.el.Seconds()
			allRates.add(rate)
			if w.steal <= steals.median() {
				quiet.merge(&w.o)
				rates.add(rate)
			}
		}
		fmt.Fprintf(out, "windows  %d of %d kept (host steal <= %.1f%%); over all windows: round_p50_us %.1f, round_p90_us %.1f, labels_per_s %.0f\n",
			len(rates), len(wins), steals.median(), measured.rounds.median(), measured.rounds.quantile(0.90), allRates.median())
		all.merge(&measured)
		// Creates happen inside the windows (session renewal); a run whose
		// sessions never turn over reports its set-up creates instead.
		creates := quiet.creates
		if len(creates) == 0 {
			creates = all.creates
		}
		n := len(quiet.rounds)
		res.e2e.set("round_p50_us", quiet.rounds.median(), "us", n)
		res.e2e.set("round_p90_us", quiet.rounds.quantile(0.90), "us", n)
		res.e2e.set("round_p99_us", measured.rounds.quantile(0.99), "us", len(measured.rounds))
		res.e2e.set("labels_per_s", rates.median(), "labels/s", quiet.labels)
		res.e2e.set("create_p50_ms", creates.median(), "ms", len(creates))
		res.e2e.set("setup_s", setupTimes.median(), "s", len(setupTimes))
		res.e2e.set("estimate_p50_us", measured.estimates.median(), "us", len(measured.estimates))
		res.e2e.set("wal_bytes_per_label", ratio(float64(d.walBytes), float64(measured.labels)), "B/label", measured.labels)
	}

	// max_rss_mb is the peak while the workload ran: the replay below
	// rebuilds every session ever created and is reported on its own.
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.e2e.set("max_rss_mb", rss, "MB", 1)

	// Durability: every live session must come back from the journal with
	// the label count this client saw acknowledged and a bit-identical
	// estimate.
	live := map[string]recoveredSession{}
	acked := map[string]int{}
	for _, wk := range ss.workers {
		for id, nl := range wk.acked {
			acked[id] = nl
		}
	}
	for _, st := range ss.s.mgr.List() {
		sess, err := ss.s.mgr.Get(st.ID)
		if err != nil {
			return nil, err
		}
		live[st.ID] = recoveredSession{st.LabelsCommitted, math.Float64bits(sess.Estimate())}
		if acked[st.ID] != st.LabelsCommitted {
			res.problem("session %s holds %d labels, client acknowledged %d", st.ID, st.LabelsCommitted, acked[st.ID])
		}
	}
	closed = true
	if err := ss.close(); err != nil {
		return nil, err
	}
	replay, events, recovered, err := replayJournal(ss.s.dir, ss.s.fsync)
	switch {
	case err != nil:
		res.problem("durability: replaying the journal failed: %v", err)
	default:
		perEvent := ratio(float64(replay.Nanoseconds())/1e3, float64(events))
		res.e2e.set("replay_us_per_event", perEvent, "us", int(events))
		if cfg.trace {
			res.layers.set("replay_us_per_event", perEvent, "us", int(events))
		}
		for id, want := range live {
			got, ok := recovered[id]
			switch {
			case !ok:
				res.problem("durability: session %s missing after replay", id)
			case got.labels != want.labels || got.est != want.est:
				res.problem("durability: session %s recovered %d labels, F̂ bits %x; live had %d labels, F̂ bits %x",
					id, got.labels, got.est, want.labels, want.est)
			}
		}
		if len(recovered) != len(live) {
			res.problem("durability: %d sessions recovered, %d were live", len(recovered), len(live))
		}
	}
	for _, f := range all.failures {
		fmt.Fprintf(out, "failed   %s\n", f)
	}
	res.problems = append(res.problems, all.problems...)
	res.attempted, res.failed = all.attempted, all.failed
	return res, nil
}

// recoveredSession is what the durability check compares: a session's
// label count and the bits of its estimate.
type recoveredSession struct {
	labels int
	est    uint64
}

// replayJournal reopens a closed journal into a fresh manager, timing
// wal.Open, and returns every recovered session.
func replayJournal(dir, fsync string) (time.Duration, uint64, map[string]recoveredSession, error) {
	pools, err := poolstore.Open(filepath.Join(dir, "pools"))
	if err != nil {
		return 0, 0, nil, err
	}
	mgr := session.NewManager(session.ManagerOptions{Shards: session.DefaultShards(), Pools: pools})
	start := time.Now()
	j, err := wal.Open(dir, mgr, wal.Options{Fsync: fsync})
	d := time.Since(start)
	if err != nil {
		return 0, 0, nil, err
	}
	events := j.Stats().ReplayApplied
	out := map[string]recoveredSession{}
	for _, st := range mgr.List() {
		sess, err := mgr.Get(st.ID)
		if err != nil {
			j.Close()
			return 0, 0, nil, err
		}
		out[st.ID] = recoveredSession{st.LabelsCommitted, math.Float64bits(sess.Estimate())}
	}
	if err := j.Close(); err != nil {
		return 0, 0, nil, err
	}
	return d, events, out, nil
}
