package session

// Tests of the content-addressed pool path: sessions created by PoolID must
// behave bit-identically to inline sessions over the same columns, share
// exactly one pool copy under a reference count, release references on
// every teardown path, and fail deterministically — all-or-nothing on
// restore — when a referenced pool is missing or corrupt.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"oasis"
	"oasis/internal/poolstore"
)

// poolFixture returns a store holding one pool plus the inline columns and
// truth labels it was built from.
func poolFixture(t *testing.T, n int, seed uint64) (store *poolstore.Store, id string, scores []float64, preds, truth []bool) {
	t.Helper()
	var err error
	store, err = poolstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	scores, preds, truth = testPool(n, seed)
	info, _, err := store.Put(scores, preds)
	if err != nil {
		t.Fatal(err)
	}
	return store, info.ID, scores, preds, truth
}

// TestPoolRefMatchesInlineExactly drives a PoolID session and an inline
// session with the same seed through identical propose/commit rounds: the
// proposal sequences and estimates must be bit-identical, proving the
// shared zero-copy pool changes nothing about the sampling.
func TestPoolRefMatchesInlineExactly(t *testing.T) {
	store, id, scores, preds, truth := poolFixture(t, 2000, 21)
	opts := oasis.Options{Strata: 12, Seed: 5}

	inlineMgr := newTestManager(nil)
	inline, err := inlineMgr.Create(Config{ID: "inline", Scores: scores, Preds: preds, Calibrated: true, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	refMgr := NewManager(ManagerOptions{Pools: store})
	byRef, err := refMgr.Create(Config{ID: "byref", PoolID: id, Calibrated: true, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 30; round++ {
		a, err := inline.Propose(4)
		if err != nil {
			t.Fatal(err)
		}
		b, err := byRef.Propose(4)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("round %d: %d vs %d proposals", round, len(a), len(b))
		}
		for i := range a {
			if a[i].Pair != b[i].Pair {
				t.Fatalf("round %d diverged at %d: inline pair %d, poolref pair %d", round, i, a[i].Pair, b[i].Pair)
			}
			if err := inline.Commit(a[i].Pair, truth[a[i].Pair]); err != nil {
				t.Fatal(err)
			}
			if err := byRef.Commit(b[i].Pair, truth[b[i].Pair]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if ea, eb := inline.Estimate(), byRef.Estimate(); ea != eb {
		t.Fatalf("estimates diverged: inline %v, poolref %v", ea, eb)
	}
	if st := byRef.Status(); st.PoolID != id || st.PoolSize != 2000 {
		t.Fatalf("poolref status = %+v", st)
	}
}

// TestConcurrentSessionsShareOnePoolCopy is the single-copy acceptance
// check: K sessions over one pool hold exactly one shared copy, asserted
// by refcount and by backing-array identity, through create, delete and
// store stats.
func TestConcurrentSessionsShareOnePoolCopy(t *testing.T) {
	store, id, _, _, _ := poolFixture(t, 800, 23)
	mgr := NewManager(ManagerOptions{Pools: store, Shards: 4})
	const k = 16
	for i := 0; i < k; i++ {
		if _, err := mgr.Create(Config{PoolID: id, Calibrated: true, Options: oasis.Options{Strata: 8, Seed: uint64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := store.Refs(id); got != k {
		t.Fatalf("store refs = %d, want %d", got, k)
	}
	st := store.Stats()
	if st.Pools != 1 || st.Loaded != 1 {
		t.Fatalf("store holds %d pool(s), %d loaded — want exactly one shared copy", st.Pools, st.Loaded)
	}
	// The columns really are one allocation: every session's pool aliases
	// the store's slices.
	p, err := store.Acquire(id)
	if err != nil {
		t.Fatal(err)
	}
	store.Release(id)
	for _, status := range mgr.List() {
		s, err := mgr.Get(status.ID)
		if err != nil {
			t.Fatal(err)
		}
		if s.cfg.Method != MethodOASIS {
			t.Fatal("expected an OASIS session")
		}
		if s.poolSize != p.N() {
			t.Fatalf("session %s pool size %d, store %d", status.ID, s.poolSize, p.N())
		}
	}
	// Deleting sessions returns their references one by one.
	for i, status := range mgr.List() {
		if err := mgr.Delete(status.ID); err != nil {
			t.Fatal(err)
		}
		if got, want := store.Refs(id), k-i-1; got != want {
			t.Fatalf("after %d delete(s): refs = %d, want %d", i+1, got, want)
		}
	}
	// Unreferenced now: removable.
	if err := store.Remove(id); err != nil {
		t.Fatalf("remove of unreferenced pool: %v", err)
	}
}

// TestInlineCreateInternsIntoStore: with a store attached, inline configs
// are interned — the journaled/snapshotted config carries only the hash,
// and a second inline upload of the same columns dedups onto the same
// shared pool.
func TestInlineCreateInternsIntoStore(t *testing.T) {
	store, err := poolstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(ManagerOptions{Pools: store})
	scores, preds, _ := testPool(600, 29)
	s1, err := mgr.Create(Config{ID: "a", Scores: scores, Preds: preds, Calibrated: true, Options: oasis.Options{Strata: 6, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	st := s1.Status()
	if st.PoolID == "" || st.PoolSize != 600 {
		t.Fatalf("interned session status = %+v", st)
	}
	if _, err := mgr.Create(Config{ID: "b", Scores: scores, Preds: preds, Calibrated: true, Options: oasis.Options{Strata: 6, Seed: 2}}); err != nil {
		t.Fatal(err)
	}
	stats := store.Stats()
	if stats.Pools != 1 || stats.DedupHits != 1 {
		t.Fatalf("store stats after two identical inline creates = %+v, want 1 pool, 1 dedup hit", stats)
	}
	if got := store.Refs(st.PoolID); got != 2 {
		t.Fatalf("refs = %d, want 2", got)
	}
	// The snapshot persists the hash, not the columns.
	snap, err := mgr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(snap), `"scores"`) {
		t.Fatal("snapshot of interned sessions still embeds inline scores")
	}
	if !strings.Contains(string(snap), st.PoolID) {
		t.Fatal("snapshot does not reference the interned pool")
	}
}

// TestSnapshotRestoreReacquiresPool: a snapshot round trip over a pool
// store resolves the reference, takes fresh refcounts, and continues the
// proposal sequence exactly.
func TestSnapshotRestoreReacquiresPool(t *testing.T) {
	store, id, _, _, truth := poolFixture(t, 1000, 31)
	mgr := NewManager(ManagerOptions{Pools: store})
	s, err := mgr.Create(Config{ID: "snap", PoolID: id, Calibrated: true, Options: oasis.Options{Strata: 8, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		props, err := s.Propose(2)
		if err != nil {
			t.Fatal(err)
		}
		for _, pr := range props {
			if err := s.Commit(pr.Pair, truth[pr.Pair]); err != nil {
				t.Fatal(err)
			}
		}
	}
	data, err := mgr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"scores"`) || strings.Contains(string(data), `"preds"`) {
		t.Fatal("poolref snapshot carries inline columns")
	}
	// The snapshot legitimately carries the diagnostics series (bounded at a
	// few KB); the column payload for 1000 pairs would be an order of
	// magnitude larger, so the size bound still catches a leak.
	if len(data) > 16384 {
		t.Fatalf("poolref snapshot is %d bytes; the columns leaked into it", len(data))
	}

	mgr2 := NewManager(ManagerOptions{Pools: store})
	if err := mgr2.RestoreReplay(data); err != nil {
		t.Fatal(err)
	}
	if got := store.Refs(id); got != 2 { // original session + restored session
		t.Fatalf("refs after restore = %d, want 2", got)
	}
	r, err := mgr2.Get("snap")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		a, err := s.Propose(1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := r.Propose(1)
		if err != nil {
			t.Fatal(err)
		}
		if a[0].Pair != b[0].Pair {
			t.Fatalf("restored session diverged at round %d: %d vs %d", i, a[0].Pair, b[0].Pair)
		}
		if err := s.Commit(a[0].Pair, truth[a[0].Pair]); err != nil {
			t.Fatal(err)
		}
		if err := r.Commit(b[0].Pair, truth[b[0].Pair]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRestoreMissingPoolAllOrNothing: a snapshot referencing pools with no
// pool store attached must restore nothing: no sessions registered.
func TestRestoreMissingPoolAllOrNothing(t *testing.T) {
	_, _, data := parkFixture(t)
	t.Run("no store attached", func(t *testing.T) {
		fresh := newTestManager(nil)
		if err := fresh.RestoreReplay(data); err == nil || !strings.Contains(err.Error(), "no pool store") {
			t.Fatalf("restore without store: err = %v", err)
		}
		if fresh.Len() != 0 {
			t.Fatalf("aborted restore registered %d session(s)", fresh.Len())
		}
	})
}

// TestRestoreReplayParksUnresolvablePools: a snapshot referencing a pool the
// store cannot resolve — unknown, truncated or hash-mismatched — parks its
// sessions instead of aborting (a later journaled delete may absolve them):
// nothing is registered, no reference leaks, and UnresolvedReplayCreates
// names every parked session.
func TestRestoreReplayParksUnresolvablePools(t *testing.T) {
	dir, id, data := parkFixture(t)
	check := func(t *testing.T, store *poolstore.Store) {
		t.Helper()
		fresh := NewManager(ManagerOptions{Pools: store})
		preRefs := store.Stats().Refs
		if err := fresh.RestoreReplay(data); err != nil {
			t.Fatalf("restore: %v", err)
		}
		if fresh.Len() != 0 {
			t.Fatalf("restore registered %d session(s) over an unresolvable pool", fresh.Len())
		}
		if got := store.Stats().Refs; got != preRefs {
			t.Fatalf("parked restore leaked pool references: %d -> %d", preRefs, got)
		}
		err := fresh.UnresolvedReplayCreates()
		if err == nil || !strings.Contains(err.Error(), `"p1"`) || !strings.Contains(err.Error(), `"p2"`) {
			t.Fatalf("unresolved creates: %v, want both parked sessions named", err)
		}
	}
	t.Run("unknown id", func(t *testing.T) {
		empty, err := poolstore.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		check(t, empty)
	})
	t.Run("truncated pool file", func(t *testing.T) {
		dir2 := t.TempDir()
		raw, err := os.ReadFile(filepath.Join(dir, id+".pool"))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir2, id+".pool"), raw[:len(raw)-7], 0o644); err != nil {
			t.Fatal(err)
		}
		damaged, err := poolstore.Open(dir2)
		if err != nil {
			t.Fatal(err)
		}
		check(t, damaged)
	})
	t.Run("hash mismatch", func(t *testing.T) {
		dir2 := t.TempDir()
		otherScores, otherPreds, _ := testPool(500, 38)
		other, err := poolstore.Encode(otherScores, otherPreds)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir2, id+".pool"), other, 0o644); err != nil {
			t.Fatal(err)
		}
		swapped, err := poolstore.Open(dir2)
		if err != nil {
			t.Fatal(err)
		}
		check(t, swapped)
	})
}

// parkFixture snapshots two labelled sessions over one stored pool,
// returning the store directory, the pool ID and the snapshot.
func parkFixture(t *testing.T) (dir, id string, data []byte) {
	t.Helper()
	dir = t.TempDir()
	store, err := poolstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	scores, preds, truth := testPool(500, 37)
	putInfo, _, err := store.Put(scores, preds)
	if err != nil {
		t.Fatal(err)
	}
	id = putInfo.ID
	mgr := NewManager(ManagerOptions{Pools: store})
	for i, cid := range []string{"p1", "p2"} {
		s, err := mgr.Create(Config{ID: cid, PoolID: id, Calibrated: true, Options: oasis.Options{Strata: 6, Seed: uint64(i)}})
		if err != nil {
			t.Fatal(err)
		}
		props, err := s.Propose(1)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Commit(props[0].Pair, truth[props[0].Pair]); err != nil {
			t.Fatal(err)
		}
	}
	data, err = mgr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return dir, id, data
}

// TestCreateErrorPathsReleasePool: duplicate IDs and invalid configs must
// not leak references on the shared pool.
func TestCreateErrorPathsReleasePool(t *testing.T) {
	store, id, _, _, _ := poolFixture(t, 300, 41)
	mgr := NewManager(ManagerOptions{Pools: store})
	if _, err := mgr.Create(Config{ID: "dup", PoolID: id, Calibrated: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Create(Config{ID: "dup", PoolID: id, Calibrated: true}); err == nil {
		t.Fatal("duplicate create succeeded")
	}
	if got := store.Refs(id); got != 1 {
		t.Fatalf("refs after duplicate-ID create = %d, want 1", got)
	}
	// Ambiguous config: both a reference and inline columns.
	if _, err := mgr.Create(Config{ID: "both", PoolID: id, Scores: []float64{0.5}, Preds: []bool{true}}); err == nil || !strings.Contains(err.Error(), "pick one") {
		t.Fatalf("ambiguous config: err = %v", err)
	}
	if got := store.Refs(id); got != 1 {
		t.Fatalf("refs after ambiguous create = %d, want 1", got)
	}
	// An invalid method after a successful acquire.
	if _, err := mgr.Create(Config{ID: "bad", PoolID: id, Method: "nope"}); err == nil {
		t.Fatal("bad method accepted")
	}
	if got := store.Refs(id); got != 1 {
		t.Fatalf("refs after bad-method create = %d, want 1", got)
	}
}

// TestMemoryOnlyStoreDoesNotIntern: with a memory-only store, inline
// configs must stay inline — a snapshot referencing a pool that dies with
// the process could never restore. Explicit PoolID references still work.
func TestMemoryOnlyStoreDoesNotIntern(t *testing.T) {
	store, err := poolstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(ManagerOptions{Pools: store})
	scores, preds, _ := testPool(300, 43)
	s, err := mgr.Create(Config{ID: "inline", Scores: scores, Preds: preds, Calibrated: true, Options: oasis.Options{Strata: 4, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Status(); st.PoolID != "" {
		t.Fatalf("memory-only store interned an inline pool: %+v", st)
	}
	data, err := mgr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"scores"`) {
		t.Fatal("inline session's snapshot lost its columns")
	}
	// The self-contained snapshot restores into a fresh process whose
	// memory-only store is empty.
	fresh := NewManager(ManagerOptions{Pools: mustMemStore(t)})
	if err := fresh.RestoreReplay(data); err != nil {
		t.Fatalf("restore of inline snapshot: %v", err)
	}
	// Explicit references against the memory-only store still resolve.
	putInfo, _, err := store.Put(scores, preds)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Create(Config{ID: "byref", PoolID: putInfo.ID, Calibrated: true}); err != nil {
		t.Fatal(err)
	}
}

func mustMemStore(t *testing.T) *poolstore.Store {
	t.Helper()
	s, err := poolstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPoolRefConfigRoundTripsThroughJSON guards the wire format: a PoolID
// config marshals without score columns and unmarshals back.
func TestPoolRefConfigRoundTripsThroughJSON(t *testing.T) {
	cfg := Config{ID: "x", PoolID: strings.Repeat("ab", 32), Calibrated: true, LeaseTTL: time.Minute}
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "scores") {
		t.Fatalf("poolref config marshals score columns: %s", data)
	}
	var back Config
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.PoolID != cfg.PoolID {
		t.Fatalf("round trip lost the pool reference: %+v", back)
	}
}
