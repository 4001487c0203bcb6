package main

// Crash-recovery end-to-end test: build the real oasis-server binary, drive
// it over HTTP with -wal -fsync always, SIGKILL it mid-session, restart it
// from the WAL directory, and demand the recovered server continue the
// exact proposal sequence — compared bit-for-bit against an uninterrupted
// in-process reference session driven with the same request pattern. This
// is the acceptance gate for the durable label journal: kill -9 plus
// recovery must be indistinguishable from never having crashed.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"oasis"
	"oasis/internal/rng"
	"oasis/internal/server"
	"oasis/internal/session"
	"oasis/internal/trace"
)

// e2ePool mirrors the synthetic pool generators used across the test suite.
func e2ePool(n int, seed uint64) (scores []float64, preds, truth []bool) {
	r := rng.New(seed)
	scores = make([]float64, n)
	preds = make([]bool, n)
	truth = make([]bool, n)
	for i := 0; i < n; i++ {
		u := r.Float64()
		scores[i] = u * u
		preds[i] = scores[i] >= 0.5
		truth[i] = r.Bernoulli(scores[i])
	}
	return scores, preds, truth
}

var listenRE = regexp.MustCompile(`oasis-server listening on ([^ ]+)`)

// startServer launches the built binary and waits for its listen line.
func startServer(t *testing.T, bin string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := listenRE.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return cmd, addr
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatal("server did not report a listen address")
		return nil, ""
	}
}

func postJSON(t *testing.T, url string, body, out any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// driveServerRound proposes a batch over HTTP and commits every pair.
func driveServerRound(t *testing.T, base, id string, batch int, truth []bool) []int {
	t.Helper()
	var pr server.ProposeResponse
	if code := getJSON(t, fmt.Sprintf("%s/v1/sessions/%s/propose?n=%d", base, id, batch), &pr); code != http.StatusOK {
		t.Fatalf("propose %s: status %d", id, code)
	}
	if len(pr.Proposals) != batch {
		t.Fatalf("%s proposed %d pairs, want %d", id, len(pr.Proposals), batch)
	}
	req := server.LabelsRequest{}
	pairs := make([]int, len(pr.Proposals))
	for i, p := range pr.Proposals {
		pairs[i] = p.Pair
		req.Labels = append(req.Labels, server.Label{Pair: p.Pair, Label: truth[p.Pair]})
	}
	var lr server.LabelsResponse
	if code := postJSON(t, base+"/v1/sessions/"+id+"/labels", req, &lr); code != http.StatusOK {
		t.Fatalf("labels %s: status %d", id, code)
	}
	if lr.Committed != len(req.Labels) {
		t.Fatalf("%s committed %d of %d", id, lr.Committed, len(req.Labels))
	}
	return pairs
}

// driveRefRound is the in-process mirror of driveServerRound.
func driveRefRound(t *testing.T, s *session.Session, batch int, truth []bool) []int {
	t.Helper()
	props, err := s.Propose(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(props) != batch {
		t.Fatalf("reference proposed %d pairs, want %d", len(props), batch)
	}
	pairs := make([]int, len(props))
	labels := make([]bool, len(props))
	for i, p := range props {
		pairs[i] = p.Pair
		labels[i] = truth[p.Pair]
	}
	if _, err := s.CommitBatch(pairs, labels); err != nil {
		t.Fatal(err)
	}
	return pairs
}

func TestCrashRecoveryEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real server binary")
	}
	bin := filepath.Join(t.TempDir(), "oasis-server")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	walDir := t.TempDir()

	scores, preds, truth := e2ePool(3000, 42)
	cfg := session.Config{
		ID: "e2e", Scores: scores, Preds: preds, Calibrated: true,
		Options:  oasis.Options{Strata: 12, Seed: 77},
		LeaseTTL: time.Minute,
	}
	const (
		batch       = 16
		preRounds   = 12
		postRounds  = 12
		totalRounds = preRounds + postRounds
	)

	// Uninterrupted in-process references: one inline session and one that
	// will be served by poolId on the server side — the content-addressed
	// path must be indistinguishable from inline, before and after kill -9.
	refMgr := session.NewManager(session.ManagerOptions{})
	ref, err := refMgr.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refCfg := cfg
	refCfg.ID = "e2e-pool"
	refCfg.Options.Seed = 78
	refPool, err := refMgr.Create(refCfg)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: live server, create + label, then SIGKILL between batches.
	// -shards 4 exercises the multi-lane WAL: the journal's lane count is
	// fixed at creation, so the restarted server must come back with the
	// same value. The default -pools-dir (<wal>/pools) persists the shared
	// pool next to the journal.
	cmd, addr := startServer(t, bin, "-addr", "127.0.0.1:0", "-wal", walDir, "-fsync", "always", "-shards", "4")
	base := "http://" + addr
	if code := postJSON(t, base+"/v1/sessions", cfg, nil); code != http.StatusCreated {
		cmd.Process.Kill()
		t.Fatalf("create: status %d", code)
	}
	// Upload the pool, then create the second session by reference. The
	// inline create above was interned into the store under the same content
	// address, so this upload may legitimately land as a dedup hit (200).
	var uploaded server.PoolResponse
	if code := postJSON(t, base+"/v1/pools", server.PoolUploadRequest{Scores: scores, Preds: preds}, &uploaded); code != http.StatusCreated && code != http.StatusOK {
		cmd.Process.Kill()
		t.Fatalf("pool upload: status %d", code)
	}
	poolCfg := session.Config{
		ID: "e2e-pool", PoolID: uploaded.PoolID, Calibrated: true,
		Options:  oasis.Options{Strata: 12, Seed: 78},
		LeaseTTL: time.Minute,
	}
	var poolSt session.Status
	if code := postJSON(t, base+"/v1/sessions", poolCfg, &poolSt); code != http.StatusCreated {
		cmd.Process.Kill()
		t.Fatalf("poolref create: status %d", code)
	}
	if poolSt.PoolID != uploaded.PoolID || poolSt.PoolSize != len(scores) {
		cmd.Process.Kill()
		t.Fatalf("poolref session status = %+v", poolSt)
	}
	for round := 0; round < preRounds; round++ {
		for _, sess := range []struct {
			id  string
			ref *session.Session
		}{{"e2e", ref}, {"e2e-pool", refPool}} {
			got := driveServerRound(t, base, sess.id, batch, truth)
			want := driveRefRound(t, sess.ref, batch, truth)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("pre-crash round %d (%s) diverged at %d: server pair %d, reference %d", round, sess.id, i, got[i], want[i])
				}
			}
		}
	}
	var health server.HealthResponse
	if code := getJSON(t, base+"/healthz", &health); code != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healthz: status %d, %+v", code, health)
	}
	var stats server.StatsResponse
	if code := getJSON(t, base+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if stats.Sessions != 2 || stats.LabelsCommitted != 2*preRounds*batch || stats.WAL == nil || stats.WAL.RecordsAppended == 0 {
		t.Fatalf("unexpected stats before crash: %+v (wal %+v)", stats, stats.WAL)
	}
	// Both sessions — the interned inline one and the explicit poolref one —
	// share the single stored copy: one pool, one resident copy, two refs.
	if stats.Pools == nil || stats.Pools.Pools != 1 || stats.Pools.Refs != 2 || stats.Pools.Loaded != 1 {
		t.Fatalf("unexpected pool stats before crash: %+v", stats.Pools)
	}

	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	// Phase 2: restart from the WAL; the recovered sampler must continue
	// the exact sequence the uninterrupted reference produces.
	cmd2, addr2 := startServer(t, bin, "-addr", "127.0.0.1:0", "-wal", walDir, "-fsync", "always", "-shards", "4")
	defer interrupt(cmd2)
	base2 := "http://" + addr2

	var st session.Status
	for _, id := range []string{"e2e", "e2e-pool"} {
		if code := getJSON(t, base2+"/v1/sessions/"+id, &st); code != http.StatusOK {
			t.Fatalf("recovered session %s missing: status %d", id, code)
		}
		if st.LabelsCommitted != preRounds*batch {
			t.Fatalf("%s recovered %d labels, want %d", id, st.LabelsCommitted, preRounds*batch)
		}
	}
	// The recovered server resolved the stored pool again: same single copy,
	// both replayed sessions referencing it.
	if code := getJSON(t, base2+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats after recovery: status %d", code)
	}
	if stats.Pools == nil || stats.Pools.Pools != 1 || stats.Pools.Refs != 2 || stats.Pools.Loaded != 1 {
		t.Fatalf("unexpected pool stats after recovery: %+v", stats.Pools)
	}
	// The replay counters must survive into both /v1/stats and /metrics:
	// a scrape right after recovery is how an operator confirms the journal
	// actually replayed instead of starting empty.
	if stats.WAL == nil || stats.WAL.ReplayApplied == 0 {
		t.Fatalf("recovery replayed no WAL events: %+v", stats.WAL)
	}
	exposition := getRaw(t, base2+"/metrics")
	if v := metricValue(t, exposition, "oasis_wal_replay_applied_total"); v == 0 {
		t.Fatal("scraped oasis_wal_replay_applied_total = 0 after recovery")
	} else if v != float64(stats.WAL.ReplayApplied) {
		t.Fatalf("scraped replay counter %v, stats says %d", v, stats.WAL.ReplayApplied)
	}
	if v := metricValue(t, exposition, "oasis_sessions"); v != 2 {
		t.Fatalf("scraped oasis_sessions = %v after recovery, want 2", v)
	}
	for round := 0; round < postRounds; round++ {
		for _, sess := range []struct {
			id  string
			ref *session.Session
		}{{"e2e", ref}, {"e2e-pool", refPool}} {
			got := driveServerRound(t, base2, sess.id, batch, truth)
			want := driveRefRound(t, sess.ref, batch, truth)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("post-recovery round %d (%s) diverged at %d: server pair %d, reference %d", round, sess.id, i, got[i], want[i])
				}
			}
		}
	}

	// The estimates must agree exactly too: the JSON float64 round trip is
	// lossless, so any difference is real state divergence.
	for _, sess := range []struct {
		id  string
		ref *session.Session
	}{{"e2e", ref}, {"e2e-pool", refPool}} {
		if code := getJSON(t, base2+"/v1/sessions/"+sess.id+"/estimate", &st); code != http.StatusOK {
			t.Fatalf("estimate %s: status %d", sess.id, code)
		}
		if st.LabelsCommitted != totalRounds*batch {
			t.Fatalf("%s final labels %d, want %d", sess.id, st.LabelsCommitted, totalRounds*batch)
		}
		refEst := sess.ref.Estimate()
		if st.Estimate == nil || *st.Estimate != refEst {
			t.Fatalf("%s recovered estimate %v, reference %v", sess.id, st.Estimate, refEst)
		}
	}
	t.Logf("kill -9 + WAL recovery reproduced %d proposals (inline + poolref) and both estimates exactly", 2*totalRounds*batch)

	// Phase 3: graceful restart. Lease a batch, read both estimates, stop
	// the recovered server with SIGINT: its shutdown compacts every lane, so
	// a third server on the same journal boots from the lane snapshots
	// alone, replays no events, and serves the same state — except the
	// lease, which the boot drops.
	var leased server.ProposeResponse
	if code := getJSON(t, base2+"/v1/sessions/e2e/propose?n=4", &leased); code != http.StatusOK || len(leased.Proposals) != 4 {
		t.Fatalf("lease before shutdown: status %d, %d proposals", code, len(leased.Proposals))
	}
	before := map[string]session.Status{}
	for _, id := range []string{"e2e", "e2e-pool"} {
		if code := getJSON(t, base2+"/v1/sessions/"+id+"/estimate", &st); code != http.StatusOK {
			t.Fatalf("estimate %s before shutdown: status %d", id, code)
		}
		before[id] = st
	}
	if err := interrupt(cmd2); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	cmd3, addr3 := startServer(t, bin, "-addr", "127.0.0.1:0", "-wal", walDir, "-fsync", "always", "-shards", "4")
	defer interrupt(cmd3)
	base3 := "http://" + addr3
	if code := getJSON(t, base3+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats after graceful restart: status %d", code)
	}
	if stats.WAL == nil || !stats.WAL.ReplaySnapshot || stats.WAL.ReplayApplied != 0 {
		t.Fatalf("graceful restart did not boot from compacted snapshots alone: %+v", stats.WAL)
	}
	for id, want := range before {
		if code := getJSON(t, base3+"/v1/sessions/"+id+"/estimate", &st); code != http.StatusOK {
			t.Fatalf("estimate %s after graceful restart: status %d", id, code)
		}
		if st.LabelsCommitted != want.LabelsCommitted {
			t.Fatalf("%s: %d labels after graceful restart, want %d", id, st.LabelsCommitted, want.LabelsCommitted)
		}
		if st.Estimate == nil || want.Estimate == nil || *st.Estimate != *want.Estimate {
			t.Fatalf("%s: estimate %v after graceful restart, %v before", id, st.Estimate, want.Estimate)
		}
	}
	req := server.LabelsRequest{}
	for _, p := range leased.Proposals {
		req.Labels = append(req.Labels, server.Label{Pair: p.Pair, Label: truth[p.Pair]})
	}
	var lr server.LabelsResponse
	if code := postJSON(t, base3+"/v1/sessions/e2e/labels", req, &lr); code != http.StatusOK || lr.Committed != 0 {
		t.Fatalf("labels for a pre-restart lease: status %d, committed %d", code, lr.Committed)
	}
	for _, r := range lr.Results {
		if r.Status != "expired" {
			t.Fatalf("pre-restart lease for pair %d answered %q, want \"expired\"", r.Pair, r.Status)
		}
	}
}

// interrupt stops a server with SIGINT and waits for it to exit, killing it
// after 10s. It returns the exit error: nil for a clean exit, or when the
// process was already reaped.
func interrupt(cmd *exec.Cmd) error {
	if cmd.ProcessState != nil {
		return nil
	}
	cmd.Process.Signal(os.Interrupt)
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		<-done
		return fmt.Errorf("no exit within 10s of SIGINT")
	}
}

// getRaw fetches a URL and returns the body as text.
func getRaw(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// metricValue sums every sample of one family in a raw exposition.
func metricValue(t *testing.T, exposition, family string) float64 {
	t.Helper()
	var sum float64
	found := false
	for _, line := range strings.Split(exposition, "\n") {
		if !strings.HasPrefix(line, family) {
			continue
		}
		rest := line[len(family):]
		if len(rest) > 0 && rest[0] != ' ' && rest[0] != '{' {
			continue // longer name sharing the prefix
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("bad sample line %q: %v", line, err)
		}
		sum += v
		found = true
	}
	if !found {
		t.Fatalf("family %q absent from exposition", family)
	}
	return sum
}

// TestMetricsSmokeEndToEnd boots the real binary, runs a short workload,
// and demands a well-formed /metrics exposition with live hot-path
// counters — the same check `make metrics-smoke` runs in CI.
func TestMetricsSmokeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a real server binary")
	}
	bin := filepath.Join(t.TempDir(), "oasis-server")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cmd, addr := startServer(t, bin, "-addr", "127.0.0.1:0", "-wal", t.TempDir(), "-fsync", "always", "-access-log")
	defer func() {
		cmd.Process.Signal(os.Interrupt)
		done := make(chan struct{})
		go func() { cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()
	base := "http://" + addr

	scores, preds, truth := e2ePool(1000, 7)
	cfg := session.Config{
		ID: "smoke", Scores: scores, Preds: preds, Calibrated: true,
		Options: oasis.Options{Strata: 10, Seed: 5},
	}
	if code := postJSON(t, base+"/v1/sessions", cfg, nil); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	const rounds, batch = 5, 16
	for i := 0; i < rounds; i++ {
		driveServerRound(t, base, "smoke", batch, truth)
	}

	exposition := getRaw(t, base+"/metrics")
	// Exposition sanity: every family has HELP and TYPE, and the hot-path
	// counters that the workload must have driven are non-zero.
	for _, fam := range []string{"oasis_session_labels_committed_total", "oasis_http_requests_total",
		"oasis_wal_records_appended_total", "oasis_wal_fsync_seconds_count",
		"oasis_session_commit_seconds_count", "oasis_sampler_ess_ratio"} {
		root := strings.TrimSuffix(strings.TrimSuffix(fam, "_count"), "_seconds") + "_seconds"
		if !strings.Contains(fam, "_seconds") {
			root = fam
		}
		if !strings.Contains(exposition, "# HELP "+root) || !strings.Contains(exposition, "# TYPE "+root) {
			t.Errorf("family %s lacks HELP/TYPE", root)
		}
	}
	if v := metricValue(t, exposition, "oasis_session_labels_committed_total"); v != rounds*batch {
		t.Errorf("labels committed = %v, want %d", v, rounds*batch)
	}
	if v := metricValue(t, exposition, "oasis_wal_records_appended_total"); v == 0 {
		t.Error("WAL append counter is zero after workload")
	}
	if v := metricValue(t, exposition, "oasis_wal_fsync_seconds_count"); v == 0 {
		t.Error("fsync histogram observed nothing with -fsync always")
	}
	// The scrape observes itself: the only in-flight request is /metrics.
	if v := metricValue(t, exposition, "oasis_http_in_flight_requests"); v != 1 {
		t.Errorf("in-flight gauge = %v during scrape, want 1", v)
	}
	ratio := metricValue(t, exposition, "oasis_sampler_ess_ratio")
	if !(ratio > 0 && ratio <= 1.0000001) {
		t.Errorf("ESS ratio = %v, want in (0,1]", ratio)
	}

	var stats server.StatsResponse
	if code := getJSON(t, base+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if stats.UptimeSeconds <= 0 || stats.Runtime.Goroutines <= 0 || stats.Runtime.GoVersion == "" {
		t.Errorf("stats runtime block not populated: uptime=%v runtime=%+v", stats.UptimeSeconds, stats.Runtime)
	}
	if stats.Version == "" {
		t.Error("stats version is empty")
	}
	if out, err := exec.Command(bin, "-version").Output(); err != nil || !strings.Contains(string(out), stats.Version) {
		t.Errorf("-version output %q does not carry stats version %q (err %v)", out, stats.Version, err)
	}
}

// tracedJSON issues one request carrying a sampled W3C traceparent with the
// given trace ID, forcing the server to record it regardless of the head
// sampling rate, and decodes the JSON response.
func tracedJSON(t *testing.T, method, url, traceID string, body, out any) int {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", "00-"+traceID+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Traceparent"); !strings.Contains(got, traceID) {
		t.Fatalf("%s %s: response traceparent %q does not carry trace %s", method, url, got, traceID)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// TestTraceSmokeEndToEnd boots the real binary with the WAL enabled and
// head sampling off, forces one traced create/propose/commit round via
// sampled traceparent headers, and demands /debug/traces/{id} return span
// timelines that cover every serving layer — the pool store on the create
// (acquire + strata against the uploaded pool), the sampler and WAL on
// propose and commit (append alone on propose, append+fsync on commit),
// and a server-layer handle span covering >= 90% of each root span's wall
// time. This is the check `make trace-smoke` runs in CI.
func TestTraceSmokeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a real server binary")
	}
	bin := filepath.Join(t.TempDir(), "oasis-server")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cmd, addr := startServer(t, bin,
		"-addr", "127.0.0.1:0", "-wal", t.TempDir(), "-fsync", "always",
		"-access-log", "-trace-sample", "0")
	defer func() {
		cmd.Process.Signal(os.Interrupt)
		done := make(chan struct{})
		go func() { cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()
	base := "http://" + addr

	scores, preds, truth := e2ePool(2000, 11)
	var uploaded server.PoolResponse
	if code := postJSON(t, base+"/v1/pools", server.PoolUploadRequest{Scores: scores, Preds: preds}, &uploaded); code != http.StatusCreated {
		t.Fatalf("upload pool: status %d", code)
	}

	const (
		tidCreate = "0000000000000008aaaaaaaaaaaaaaa1"
		tidProp   = "0000000000000008aaaaaaaaaaaaaaa2"
		tidCommit = "0000000000000008aaaaaaaaaaaaaaa3"
	)
	cfg := session.Config{
		ID: "tsmoke", PoolID: uploaded.PoolID, Calibrated: true,
		Options: oasis.Options{Strata: 10, Seed: 5},
	}
	if code := tracedJSON(t, "POST", base+"/v1/sessions", tidCreate, cfg, nil); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	var pr server.ProposeResponse
	if code := tracedJSON(t, "GET", base+"/v1/sessions/tsmoke/propose?n=8", tidProp, nil, &pr); code != http.StatusOK {
		t.Fatalf("propose: status %d", code)
	}
	if len(pr.Proposals) != 8 {
		t.Fatalf("proposed %d pairs, want 8", len(pr.Proposals))
	}
	req := server.LabelsRequest{}
	for _, p := range pr.Proposals {
		req.Labels = append(req.Labels, server.Label{Pair: p.Pair, Label: truth[p.Pair]})
	}
	var lr server.LabelsResponse
	if code := tracedJSON(t, "POST", base+"/v1/sessions/tsmoke/labels", tidCommit, req, &lr); code != http.StatusOK {
		t.Fatalf("labels: status %d", code)
	}
	if lr.Committed != len(req.Labels) {
		t.Fatalf("committed %d of %d", lr.Committed, len(req.Labels))
	}

	// fetchTrace pulls one retained trace and indexes its layers and names.
	fetchTrace := func(tid string) (tj trace.TraceJSON, layers, names map[string]bool) {
		t.Helper()
		if code := getJSON(t, base+"/debug/traces/"+tid, &tj); code != http.StatusOK {
			t.Fatalf("GET /debug/traces/%s: status %d", tid, code)
		}
		layers, names = map[string]bool{}, map[string]bool{}
		for _, sp := range tj.Spans {
			layers[sp.Layer] = true
			names[sp.Name] = true
		}
		if tj.DroppedSpans != 0 {
			t.Errorf("trace %s dropped %d spans", tid, tj.DroppedSpans)
		}
		// Root coverage: the direct children of the root span must account
		// for >= 90% of the request's wall time, or the timeline has holes.
		var rootCovered float64
		for _, sp := range tj.Spans {
			if sp.Parent == -1 {
				rootCovered += sp.DurUs
			}
		}
		if tj.DurationUs > 0 && rootCovered < 0.9*tj.DurationUs {
			t.Errorf("trace %s: root-level spans cover %.1fµs of %.1fµs (< 90%%)", tid, rootCovered, tj.DurationUs)
		}
		return tj, layers, names
	}

	// Create: server + session + pool store (acquire and strata of the
	// uploaded pool) + WAL (create record is fsynced).
	_, layers, names := fetchTrace(tidCreate)
	for _, want := range []string{"server", "session", "pool", "wal"} {
		if !layers[want] {
			t.Errorf("create trace missing %q layer; got %v", want, layers)
		}
	}
	for _, want := range []string{"session.build", "pool.acquire", "pool.strata", "wal.append", "wal.fsync", "shard.lock_wait"} {
		if !names[want] {
			t.Errorf("create trace missing span %q; got %v", want, names)
		}
	}

	// Propose: sampler draws journaled to the WAL lane (append, no fsync —
	// the propose event is redone by replay, not awaited).
	tj, layers, names := fetchTrace(tidProp)
	for _, want := range []string{"server", "session", "sampler", "wal"} {
		if !layers[want] {
			t.Errorf("propose trace missing %q layer; got %v", want, layers)
		}
	}
	for _, want := range []string{"http.handle", "session.propose", "lock.wait", "sampler.propose", "wal.append"} {
		if !names[want] {
			t.Errorf("propose trace missing span %q; got %v", want, names)
		}
	}
	if tj.Route != "GET /v1/sessions/{id}/propose" {
		t.Errorf("propose trace route %q", tj.Route)
	}

	// Commit: the durability tax must be visible — append and fsync spans
	// on the session's WAL lane.
	_, layers, names = fetchTrace(tidCommit)
	for _, want := range []string{"server", "session", "sampler", "wal"} {
		if !layers[want] {
			t.Errorf("commit trace missing %q layer; got %v", want, layers)
		}
	}
	for _, want := range []string{"http.decode", "session.commit", "sampler.commit", "wal.append", "wal.fsync"} {
		if !names[want] {
			t.Errorf("commit trace missing span %q; got %v", want, names)
		}
	}

	// Head sampling is off: an untraced request must not be recorded, so
	// the listing holds exactly the three forced traces.
	var list server.TracesResponse
	if code := getJSON(t, base+"/debug/traces", &list); code != http.StatusOK {
		t.Fatalf("GET /debug/traces: status %d", code)
	}
	if len(list.Traces) != 3 {
		t.Errorf("listing has %d traces, want exactly the 3 forced ones", len(list.Traces))
	}
	if list.Stats.Recorded != 3 {
		t.Errorf("recorded = %d, want 3", list.Stats.Recorded)
	}
}

// TestDiagSmokeEndToEnd boots the real binary with a small diagnostics ring,
// runs two sessions to a label budget that forces downsampling, and demands
// /v1/sessions/{id}/diagnostics return a non-empty downsampled series with a
// monotone labels axis and /debug/dashboard render complete HTML with both
// sparklines (estimate and ESS) for every live session. This is the check
// `make diag-smoke` runs in CI.
func TestDiagSmokeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a real server binary")
	}
	bin := filepath.Join(t.TempDir(), "oasis-server")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cmd, addr := startServer(t, bin, "-addr", "127.0.0.1:0", "-diag-series", "16")
	defer func() {
		cmd.Process.Signal(os.Interrupt)
		done := make(chan struct{})
		go func() { cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()
	base := "http://" + addr

	scores, preds, truth := e2ePool(800, 21)
	ids := []string{"diag-a", "diag-b"}
	for _, id := range ids {
		cfg := session.Config{
			ID: id, Scores: scores, Preds: preds, Calibrated: true,
			Options: oasis.Options{Strata: 8, Seed: 9},
		}
		if code := postJSON(t, base+"/v1/sessions", cfg, nil); code != http.StatusCreated {
			t.Fatalf("create %s: status %d", id, code)
		}
		const rounds, batch = 24, 4 // 24 commit batches overflow a 16-ring
		for i := 0; i < rounds; i++ {
			driveServerRound(t, base, id, batch, truth)
		}
	}

	for _, id := range ids {
		var d session.Diagnostics
		if code := getJSON(t, base+"/v1/sessions/"+id+"/diagnostics", &d); code != http.StatusOK {
			t.Fatalf("diagnostics %s: status %d", id, code)
		}
		if len(d.Series) == 0 {
			t.Fatalf("%s: empty diagnostics series", id)
		}
		if d.SeriesSeen != 24 {
			t.Errorf("%s: seen %d batches, want 24", id, d.SeriesSeen)
		}
		if d.SeriesStride < 2 {
			t.Errorf("%s: 24 batches into a 16-ring should have downsampled; stride %d", id, d.SeriesStride)
		}
		for i := 1; i < len(d.Series); i++ {
			if d.Series[i].Labels < d.Series[i-1].Labels {
				t.Fatalf("%s: labels axis not monotone at %d", id, i)
			}
		}
		if d.State == "" || len(d.Strata) == 0 {
			t.Errorf("%s: state %q, %d strata", id, d.State, len(d.Strata))
		}
	}

	page := getRaw(t, base+"/debug/dashboard")
	if !strings.HasPrefix(page, "<!DOCTYPE html>") || !strings.Contains(page, "</html>") {
		t.Fatal("dashboard is not a complete HTML document")
	}
	for _, id := range ids {
		if !strings.Contains(page, "<code>"+id+"</code>") {
			t.Errorf("dashboard missing session %q", id)
		}
	}
	if got := strings.Count(page, `class="spark"`); got != 2*len(ids) {
		t.Errorf("dashboard has %d sparklines, want %d (two per session)", got, 2*len(ids))
	}
	if !strings.Contains(page, "<polyline") {
		t.Error("dashboard sparklines carry no polylines")
	}
}
