package server

// BenchmarkServerPropose measures the end-to-end HTTP hot path of the
// evaluation service: lease a batch of 64 pairs, then commit their labels.
// One benchmark op is one propose + one labels round trip. BENCH_core.json
// holds its frozen history.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"

	"oasis"
	"oasis/internal/obs"
	"oasis/internal/rng"
	"oasis/internal/session"
	"oasis/internal/trace"
	"oasis/internal/wal"
)

func benchPool(n int, seed uint64) (scores []float64, preds, truth []bool) {
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

// BenchmarkServerProposeParallel measures the service's multi-worker hot
// path end to end — HTTP propose + labels round trips from 8 concurrent
// clients, each on its own session, against a sharded manager journaling to
// per-shard WAL lanes with fsync=always. One benchmark op is one
// propose?n=16 + one labels POST. At shards=1 every commit's fsync queues
// on one lane; at shards=8 the lanes sync concurrently. The metrics
// variant wires the full observability stack (registry, session + WAL
// instruments, /metrics routes) to keep its hot-path overhead honest —
// the PR6 acceptance gate holds it within 5% of metrics-off, and the
// traced variant (tracing at the default head-sample rate) is held to the
// same budget against shards=8 — an unsampled request must cost nothing
// but an atomic increment and two compares. Its frozen history sits in
// BENCH_core.json alongside the single-worker BenchmarkServerPropose
// baseline.
func BenchmarkServerProposeParallel(b *testing.B) {
	scores, preds, truth := benchPool(50_000, 5)
	for _, bc := range []struct {
		name    string
		shards  int
		metrics bool
		traced  bool
		binary  bool
	}{
		{"shards=1", 1, false, false, false},
		{"shards=8", 8, false, false, false},
		{"shards=8-metrics", 8, true, false, false},
		{"shards=8-traced", 8, false, true, false},
		// The binary-protocol variant of shards=8: same workload over OBP1
		// frames instead of JSON. The PR9 acceptance gate holds it to >=25%
		// better ns/op and >=50% fewer allocs/op than shards=8.
		{"shards=8-bin", 8, false, false, true},
	} {
		shards := bc.shards
		b.Run(bc.name, func(b *testing.B) {
			var reg *obs.Registry
			var sessMet *session.Metrics
			walOpts := wal.Options{Fsync: "always"}
			if bc.metrics {
				reg = obs.NewRegistry()
				sessMet = session.NewMetrics(reg, shards)
				walOpts.Metrics = wal.NewMetrics(reg)
			}
			mgr := session.NewManager(session.ManagerOptions{Shards: shards, Metrics: sessMet, Diag: quietDiag})
			j, err := wal.Open(b.TempDir(), mgr, walOpts)
			if err != nil {
				b.Fatal(err)
			}
			defer j.Close()
			srv := New(mgr)
			srv.SetJournal(j)
			if bc.traced {
				srv.EnableTracing(trace.NewCollector(trace.Options{}))
			}
			if bc.metrics {
				srv.EnableMetrics(reg)
			}
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			const nSessions = 8
			ids := make([]string, nSessions)
			for i := range ids {
				// Spread the sessions evenly across shards, whatever the count.
				for n := 0; ; n++ {
					id := fmt.Sprintf("pbench-%d-%d", i, n)
					if session.ShardOf(id, mgr.Shards()) == i%mgr.Shards() {
						ids[i] = id
						break
					}
				}
				if _, err := mgr.Create(session.Config{
					ID: ids[i], Scores: scores, Preds: preds, Calibrated: true,
					Options: oasis.Options{Strata: 30, Seed: uint64(9 + i)},
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.SetParallelism(max(1, (nSessions+runtime.GOMAXPROCS(0)-1)/runtime.GOMAXPROCS(0)))
			var next atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				id := ids[int(next.Add(1)-1)%nSessions]
				url := fmt.Sprintf("%s/v1/sessions/%s", ts.URL, id)
				client := ts.Client()
				if bc.binary {
					benchBinaryWorker(b, pb, ts.Listener.Addr().String(), "/v1/sessions/"+id, truth)
					return
				}
				for pb.Next() {
					resp, err := client.Get(url + "/propose?n=16")
					if err != nil {
						b.Error(err)
						return
					}
					var pr ProposeResponse
					if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
						b.Error(err)
						return
					}
					resp.Body.Close()
					req := LabelsRequest{Labels: make([]Label, len(pr.Proposals))}
					for k, p := range pr.Proposals {
						req.Labels[k] = Label{Pair: p.Pair, Label: truth[p.Pair]}
					}
					body, err := json.Marshal(req)
					if err != nil {
						b.Error(err)
						return
					}
					resp, err = client.Post(url+"/labels", "application/json", bytes.NewReader(body))
					if err != nil {
						b.Error(err)
						return
					}
					var lr LabelsResponse
					if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
						b.Error(err)
						return
					}
					resp.Body.Close()
					if lr.Committed != len(req.Labels) {
						b.Errorf("committed %d of %d", lr.Committed, len(req.Labels))
						return
					}
				}
			})
		})
	}
}

// benchBinaryWorker is one RunParallel worker's loop over the binary
// protocol, issued over its own persistent connection with a minimal
// hand-rolled HTTP/1.1 client — fixed request bytes, reused buffers and
// structs — the shape a hot binary client takes when the protocol, not the
// client library, should be the cost. The JSON variants keep net/http's
// stock client: marshal/unmarshal per call is intrinsic to that protocol's
// ergonomics, per-request buffer reuse is intrinsic to this one's.
func benchBinaryWorker(b *testing.B, pb *testing.PB, addr, path string, truth []bool) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		b.Error(err)
		return
	}
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 32<<10)

	proposeReq := []byte("GET " + path + "/propose?n=16 HTTP/1.1\r\nHost: bench\r\nAccept: " +
		ContentTypeBinary + "\r\n\r\n")
	labelsPrefix := "POST " + path + "/labels HTTP/1.1\r\nHost: bench\r\nAccept: " +
		ContentTypeBinary + "\r\nContent-Type: " + ContentTypeBinary + "\r\nContent-Length: "

	var out, frame, body []byte
	var pr ProposeResponse
	var req LabelsRequest
	var lresp LabelsResponse

	// readResponse parses one keep-alive response: status code, the
	// Content-Length header (writeBinary always sets one, so the body is
	// never chunked), then exactly that many body bytes into the reused
	// buffer.
	readResponse := func() (status int, ok bool) {
		line, err := br.ReadSlice('\n')
		if err != nil || len(line) < 12 {
			b.Errorf("read status line: %v %q", err, line)
			return 0, false
		}
		status = int(line[9]-'0')*100 + int(line[10]-'0')*10 + int(line[11]-'0')
		clen := -1
		for {
			line, err = br.ReadSlice('\n')
			if err != nil {
				b.Error(err)
				return 0, false
			}
			if len(line) <= 2 { // blank line ends the header block
				break
			}
			const h = "Content-Length: "
			if len(line) > len(h) && string(line[:len(h)]) == h {
				n := 0
				for _, c := range line[len(h):] {
					if c < '0' || c > '9' {
						break
					}
					n = n*10 + int(c-'0')
				}
				clen = n
			}
		}
		if clen < 0 {
			b.Error("response without Content-Length")
			return 0, false
		}
		if cap(body) < clen {
			body = make([]byte, clen)
		}
		body = body[:clen]
		if _, err := io.ReadFull(br, body); err != nil {
			b.Error(err)
			return 0, false
		}
		return status, true
	}

	for pb.Next() {
		if _, err := conn.Write(proposeReq); err != nil {
			b.Error(err)
			return
		}
		status, ok := readResponse()
		if !ok {
			return
		}
		if status != http.StatusOK {
			b.Errorf("propose: status %d: %s", status, body)
			return
		}
		if err := DecodeProposeResponse(body, &pr); err != nil {
			b.Error(err)
			return
		}
		req.Labels = req.Labels[:0]
		for _, p := range pr.Proposals {
			req.Labels = append(req.Labels, Label{Pair: p.Pair, Label: truth[p.Pair]})
		}
		frame = AppendLabelsRequest(frame[:0], &req)
		out = append(out[:0], labelsPrefix...)
		out = strconv.AppendInt(out, int64(len(frame)), 10)
		out = append(out, "\r\n\r\n"...)
		out = append(out, frame...)
		if _, err := conn.Write(out); err != nil {
			b.Error(err)
			return
		}
		if status, ok = readResponse(); !ok {
			return
		}
		if status != http.StatusOK {
			b.Errorf("labels: status %d: %s", status, body)
			return
		}
		if err := DecodeLabelsResponse(body, &lresp); err != nil {
			b.Error(err)
			return
		}
		if lresp.Committed != len(req.Labels) {
			b.Errorf("committed %d of %d", lresp.Committed, len(req.Labels))
			return
		}
	}
}

func BenchmarkServerPropose(b *testing.B) {
	scores, preds, truth := benchPool(200_000, 5)
	newSession := func(ts *httptest.Server, id string) {
		b.Helper()
		cfg := session.Config{
			ID: id, Scores: scores, Preds: preds, Calibrated: true,
			Options: oasis.Options{Strata: 30, Seed: 9},
		}
		body, err := json.Marshal(cfg)
		if err != nil {
			b.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			b.Fatalf("create session: status %d", resp.StatusCode)
		}
	}

	ts := httptest.NewServer(New(session.NewManager(session.ManagerOptions{Diag: quietDiag})).Handler())
	defer ts.Close()
	sid := 0
	newSession(ts, "bench-0")
	committed := 0

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if committed > 150_000 {
			b.StopTimer()
			sid++
			newSession(ts, fmt.Sprintf("bench-%d", sid))
			committed = 0
			b.StartTimer()
		}
		url := fmt.Sprintf("%s/v1/sessions/bench-%d", ts.URL, sid)
		resp, err := http.Get(url + "/propose?n=64")
		if err != nil {
			b.Fatal(err)
		}
		var pr ProposeResponse
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		req := LabelsRequest{Labels: make([]Label, len(pr.Proposals))}
		for j, p := range pr.Proposals {
			req.Labels[j] = Label{Pair: p.Pair, Label: truth[p.Pair]}
		}
		body, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		resp, err = http.Post(url+"/labels", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		var lr LabelsResponse
		if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		committed += lr.Committed
	}
}

// quietDiag silences health-transition logging in benchmarks: the default
// logger writes into the benchmark output stream and corrupts the
// machine-parsed result lines.
var quietDiag = session.DiagOptions{Logf: func(string, ...any) {}}
