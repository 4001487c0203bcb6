package wal

// BenchmarkCommitDurable measures the durability tax on the serving hot
// path: one benchmark op is one Propose(1) + one Commit through a session
// whose manager journals to a real on-disk WAL. The fsync=always variant is
// the full per-record durability cost (two appends + two fsyncs per op);
// fsync=off isolates the journaling overhead itself (record framing, JSON,
// one write(2) per event). Its frozen history sits in BENCH_core.json
// alongside the journal-less BenchmarkProposeCommit baseline.

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"oasis"
	"oasis/internal/poolstore"
	"oasis/internal/session"
)

// BenchmarkSessionCreate measures what the content-addressed pool store
// buys on the create path over a 1M-pair pool: the inline variant journals
// the full columns into the WAL create record (the pre-poolstore behaviour
// — O(N) JSON per create), the poolref variant stores the pool once and
// journals only its hash (O(1)). One benchmark op is one durable session
// create; the custom walB/op metric is the WAL bytes the create record
// cost. BENCH_core.json holds its frozen history.
func BenchmarkSessionCreate(b *testing.B) {
	const pairs = 1 << 20
	scores, preds, _ := walPool(pairs, 5)
	run := func(b *testing.B, mgr *session.Manager, j *Journal, cfg session.Config) {
		b.Helper()
		var walBytes uint64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cfg.ID = fmt.Sprintf("create-%d", i)
			pre := j.Stats().BytesAppended
			if _, err := mgr.Create(cfg); err != nil {
				b.Fatal(err)
			}
			walBytes += j.Stats().BytesAppended - pre
			// Drop the session outside the timed region: a 1M-pair sampler is
			// tens of MB, and the bench measures create, not accumulation.
			b.StopTimer()
			if err := mgr.Delete(cfg.ID); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		b.ReportMetric(float64(walBytes)/float64(b.N), "walB/op")
	}
	opts := oasis.Options{Strata: 30, Seed: 9}
	b.Run("inline", func(b *testing.B) {
		mgr := session.NewManager(session.ManagerOptions{Diag: quietDiag})
		j, err := Open(b.TempDir(), mgr, Options{Fsync: "off"})
		if err != nil {
			b.Fatal(err)
		}
		defer j.Close()
		run(b, mgr, j, session.Config{Scores: scores, Preds: preds, Calibrated: true, Options: opts})
	})
	b.Run("poolref", func(b *testing.B) {
		store, err := poolstore.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		putInfo, _, err := store.Put(scores, preds)
		if err != nil {
			b.Fatal(err)
		}
		id := putInfo.ID
		mgr := session.NewManager(session.ManagerOptions{Pools: store, Diag: quietDiag})
		j, err := Open(b.TempDir(), mgr, Options{Fsync: "off"})
		if err != nil {
			b.Fatal(err)
		}
		defer j.Close()
		run(b, mgr, j, session.Config{PoolID: id, Calibrated: true, Options: opts})
	})
	// poolref-warm is the steady-state serving case the zero-copy PR targets:
	// the pool is already resident (or mapped) and its stratification cached
	// from an earlier session over the same pool, so a create costs only the
	// sampler initialisation and the O(1) WAL record — no column load, no
	// O(N log N) stratify, no O(N) validation re-scan.
	b.Run("poolref-warm", func(b *testing.B) {
		store, err := poolstore.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		putInfo, _, err := store.Put(scores, preds)
		if err != nil {
			b.Fatal(err)
		}
		id := putInfo.ID
		mgr := session.NewManager(session.ManagerOptions{Pools: store, Diag: quietDiag})
		j, err := Open(b.TempDir(), mgr, Options{Fsync: "off"})
		if err != nil {
			b.Fatal(err)
		}
		defer j.Close()
		cfg := session.Config{PoolID: id, Calibrated: true, Options: opts}
		// Warm the caches: one throwaway create loads the columns and fills
		// the strata cache; deleting it releases the reference but leaves
		// both resident.
		cfg.ID = "warmup"
		if _, err := mgr.Create(cfg); err != nil {
			b.Fatal(err)
		}
		if err := mgr.Delete(cfg.ID); err != nil {
			b.Fatal(err)
		}
		run(b, mgr, j, cfg)
	})
}

// BenchmarkManagerParallel measures multi-session commit throughput through
// the sharded manager and its per-shard WAL lanes: one benchmark op is one
// durable Propose(1) + Commit (fsync=always) on one of 16 sessions spread
// evenly across the shards, driven by 8 concurrent workers. At shards=1
// every commit queues behind one lane lock and one fsync; at higher shard
// counts the lanes append and sync concurrently, so throughput scales with
// the shard count until the device or the cores saturate. BENCH_core.json
// holds its frozen history; the acceptance bar for the
// sharding refactor is ≥2× ops/s at shards=8 vs shards=1 on a multi-core
// runner (a single-core box only gets the I/O-overlap share of that — its
// ext4/virtio stack caps concurrent fsync near 2× — and measures ~1.6×).
func BenchmarkManagerParallel(b *testing.B) {
	// 50k pairs per session: commits are fsync-bound, so the pool size only
	// affects setup time, and 16 sessions × 50k labels outlasts any b.N.
	scores, preds, truth := walPool(50_000, 5)
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			mgr := session.NewManager(session.ManagerOptions{Shards: shards, Diag: quietDiag})
			j, err := Open(b.TempDir(), mgr, Options{Fsync: "always"})
			if err != nil {
				b.Fatal(err)
			}
			defer j.Close()
			const nSessions = 16
			sessions := make([]*session.Session, nSessions)
			for i := range sessions {
				// Pick IDs that land on shard i%shards, so every lane carries
				// an equal share whatever the shard count.
				var id string
				for n := 0; ; n++ {
					id = fmt.Sprintf("bench-%d-%d", i, n)
					if session.ShardOf(id, mgr.Shards()) == i%mgr.Shards() {
						break
					}
				}
				sessions[i], err = mgr.Create(session.Config{
					ID: id, Scores: scores, Preds: preds, Calibrated: true,
					Options: oasis.Options{Strata: 30, Seed: uint64(9 + i)},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			// At least 8 workers regardless of GOMAXPROCS (RunParallel spawns
			// parallelism × GOMAXPROCS goroutines): commit latency is fsync
			// latency, so lanes overlap in the I/O queue even on few cores.
			b.SetParallelism(max(1, (8+runtime.GOMAXPROCS(0)-1)/runtime.GOMAXPROCS(0)))
			var next atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				s := sessions[int(next.Add(1)-1)%nSessions]
				for pb.Next() {
					props, err := s.Propose(1)
					if err != nil {
						b.Error(err)
						return
					}
					if err := s.Commit(props[0].Pair, truth[props[0].Pair]); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

func BenchmarkCommitDurable(b *testing.B) {
	scores, preds, truth := walPool(200_000, 5)
	for _, policy := range []string{"always", "100ms", "off"} {
		b.Run("fsync="+policy, func(b *testing.B) {
			var (
				j *Journal
				s *session.Session
			)
			reset := func() {
				if j != nil {
					j.Close()
				}
				mgr := session.NewManager(session.ManagerOptions{Diag: quietDiag})
				var err error
				j, err = Open(b.TempDir(), mgr, Options{Fsync: policy})
				if err != nil {
					b.Fatal(err)
				}
				s, err = mgr.Create(session.Config{
					ID: "bench", Scores: scores, Preds: preds, Calibrated: true,
					Options: oasis.Options{Strata: 30, Seed: 9},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			reset()
			defer func() { j.Close() }()
			committed := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if committed > 150_000 {
					b.StopTimer()
					reset()
					committed = 0
					b.StartTimer()
				}
				props, err := s.Propose(1)
				if err != nil {
					b.Fatal(err)
				}
				if err := s.Commit(props[0].Pair, truth[props[0].Pair]); err != nil {
					b.Fatal(err)
				}
				committed++
			}
		})
	}
}

// quietDiag silences health-transition logging in benchmarks: the default
// logger writes into the benchmark output stream and corrupts the
// machine-parsed result lines.
var quietDiag = session.DiagOptions{Logf: func(string, ...any) {}}
