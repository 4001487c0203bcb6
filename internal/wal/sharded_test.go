package wal

// Tests for the sharded journal lanes: shard count must never change any
// session's proposal sequence or estimate (including across crash
// recovery), cross-shard create/compact races must keep every acknowledged
// session, hostile lane inputs — out-of-range shard tags, records in the
// wrong lane, missing lanes, multi-lane torn tails — must be rejected or
// truncated deterministically, and pre-lane (v1) files must be refused
// without touching the directory.

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"oasis"
	"oasis/internal/session"
)

// eqCfg builds the session config used by the equivalence tests.
func eqCfg(id string, method session.MethodKind, seed uint64, scores []float64, preds []bool) session.Config {
	return session.Config{
		ID: id, Method: method,
		Scores: scores, Preds: preds, Calibrated: true,
		Options:  oasis.Options{Strata: 12, Seed: seed},
		LeaseTTL: time.Minute,
	}
}

// equivalenceWorkload drives a fixed deterministic request pattern against
// the manager's sessions and returns every proposal sequence it produced,
// keyed by session then round. It ends with dangling proposals — the crash
// point the recovery side must drop.
func equivalenceWorkload(t *testing.T, m *session.Manager, ids []string, truth []bool) map[string][][]int {
	t.Helper()
	seqs := make(map[string][][]int, len(ids))
	get := func(id string) *session.Session {
		s, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for round := 0; round < 10; round++ {
		for _, id := range ids {
			pairs := driveRound(t, get(id), 6, truth)
			seqs[id] = append(seqs[id], pairs)
		}
	}
	for i, id := range ids {
		if i%2 == 0 { // dangling proposals on half the sessions at the crash
			if _, err := get(id).Propose(3); err != nil {
				t.Fatal(err)
			}
		}
	}
	return seqs
}

// TestShardedReplayEquivalence is the determinism gate for the sharding
// refactor: the same workload on 1, 4 and 8 shards — each journaled,
// crashed (the journal abandoned mid-flight) and recovered — must produce
// bit-for-bit identical per-session proposal sequences and estimates, and
// each recovered manager must continue exactly like an uninterrupted
// journal-less reference. Shard count decides which lock and which WAL lane
// serialise a session, never what the session does.
func TestShardedReplayEquivalence(t *testing.T) {
	scores, preds, truth := walPool(3000, 57)
	ids := make([]string, 6)
	methods := make([]session.MethodKind, len(ids))
	for i := range ids {
		ids[i] = fmt.Sprintf("eq-%d", i)
		methods[i] = session.MethodOASIS
		if i%3 == 2 {
			methods[i] = session.MethodPassive
		}
	}

	var refSeqs map[string][][]int
	for _, shards := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			// Uninterrupted journal-less reference, rebuilt per shard count so
			// requireSameContinuation never advances a shared instance.
			ref := session.NewManager(session.ManagerOptions{})
			for i, id := range ids {
				if _, err := ref.Create(eqCfg(id, methods[i], uint64(100+i), scores, preds)); err != nil {
					t.Fatal(err)
				}
			}
			refWorkload := equivalenceWorkload(t, ref, ids, truth)
			// Mirror the boot barrier the crashed side will go through: the
			// dangling proposals are dropped.
			if _, err := ref.ReplayEvent(&session.Event{Type: session.EventRestart}); err != nil {
				t.Fatal(err)
			}

			dir := t.TempDir()
			live := session.NewManager(session.ManagerOptions{Shards: shards})
			mustOpen(t, dir, live, Options{Fsync: "off", SegmentBytes: 8 << 10})
			if got := live.Shards(); got != session.NormalizeShards(shards) {
				t.Fatalf("manager has %d shards, want %d", got, shards)
			}
			for i, id := range ids {
				if _, err := live.Create(eqCfg(id, methods[i], uint64(100+i), scores, preds)); err != nil {
					t.Fatal(err)
				}
			}
			seqs := equivalenceWorkload(t, live, ids, truth)

			// The live proposal sequences must be independent of the shard
			// count — compare against the shards=1 run bit for bit.
			if refSeqs == nil {
				refSeqs = seqs
			}
			for _, id := range ids {
				if len(seqs[id]) != len(refSeqs[id]) {
					t.Fatalf("%s: %d rounds, want %d", id, len(seqs[id]), len(refSeqs[id]))
				}
				for r := range seqs[id] {
					for k := range seqs[id][r] {
						if seqs[id][r][k] != refSeqs[id][r][k] {
							t.Fatalf("%s round %d proposal %d: pair %d at %d shards, %d at 1 shard",
								id, r, k, seqs[id][r][k], shards, refSeqs[id][r][k])
						}
					}
				}
				// And against the journal-less reference, which also pins the
				// WAL plumbing out of the equation.
				for r := range seqs[id] {
					for k := range seqs[id][r] {
						if seqs[id][r][k] != refWorkload[id][r][k] {
							t.Fatalf("%s round %d proposal %d: journaled pair %d, reference %d",
								id, r, k, seqs[id][r][k], refWorkload[id][r][k])
						}
					}
				}
			}

			// Crash: no Close, no snapshot — recover a fresh manager from the
			// lanes alone, at the same shard count.
			rec := session.NewManager(session.ManagerOptions{Shards: shards})
			j2 := mustOpen(t, dir, rec, Options{Fsync: "off"})
			defer j2.Close()
			if got := rec.Len(); got != len(ids) {
				t.Fatalf("recovered %d sessions, want %d", got, len(ids))
			}
			for _, id := range ids {
				a, err := ref.Get(id)
				if err != nil {
					t.Fatal(err)
				}
				b, err := rec.Get(id)
				if err != nil {
					t.Fatalf("session %q not recovered: %v", id, err)
				}
				if ea, eb := a.Estimate(), b.Estimate(); ea != eb {
					t.Fatalf("%s: recovered estimate %v, reference %v", id, eb, ea)
				}
				if pb := b.Status().PendingProposals; pb != 0 {
					t.Fatalf("%s: recovered session has %d pending proposals, want 0", id, pb)
				}
				requireSameContinuation(t, a, b, 5, 6, truth)
			}
		})
	}
}

// TestShardedCompactionKeepsConcurrentCreates is the cross-shard variant of
// the PR 3 create/compact barrier tests: creates hammer all 8 shards while
// per-shard compactions run concurrently across shards (plus full sweeps),
// and every acknowledged session must survive recovery. A shard's create
// barrier must only be able to miss sessions of its own shard, so per-shard
// compaction of shard A while shard B is mid-create must never lose B's
// session.
func TestShardedCompactionKeepsConcurrentCreates(t *testing.T) {
	scores, preds, _ := walPool(80, 31)
	dir := t.TempDir()
	live := session.NewManager(session.ManagerOptions{Shards: 8})
	j := mustOpen(t, dir, live, Options{Fsync: "off", SegmentBytes: 1 << 10})

	const workers, perWorker = 4, 12
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := live.Create(session.Config{
					ID:     fmt.Sprintf("xrace-%d-%d", w, i),
					Scores: scores, Preds: preds, Calibrated: true,
					Options: oasis.Options{Strata: 4, Seed: uint64(w*100 + i + 1)},
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	compactDone := make(chan error, 2)
	go func() { // rolling per-shard compactions
		for i := 0; i < 40; i++ {
			if err := j.CompactShard(i % 8); err != nil {
				compactDone <- err
				return
			}
		}
		compactDone <- nil
	}()
	go func() { // full sweeps racing the per-shard ones
		for i := 0; i < 4; i++ {
			if err := j.Compact(); err != nil {
				compactDone <- err
				return
			}
		}
		compactDone <- nil
	}()
	wg.Wait()
	for i := 0; i < 2; i++ {
		if err := <-compactDone; err != nil {
			t.Fatal(err)
		}
	}

	recovered := session.NewManager(session.ManagerOptions{Shards: 8})
	j2 := mustOpen(t, dir, recovered, Options{Fsync: "off"})
	defer j2.Close()
	if got, want := recovered.Len(), workers*perWorker; got != want {
		t.Fatalf("recovered %d sessions, want %d: a create raced a shard compaction away", got, want)
	}
}

// twoLaneFixture builds a 2-shard journal with one driven session per lane
// and returns the directory and per-lane committed label counts, with the
// journal abandoned (crash).
func twoLaneFixture(t *testing.T) (dir string, committed map[int]int) {
	t.Helper()
	scores, preds, truth := walPool(400, 61)
	dir = t.TempDir()
	mgr := session.NewManager(session.ManagerOptions{Shards: 2})
	mustOpen(t, dir, mgr, Options{Fsync: "off"})
	committed = make(map[int]int)
	for lane := 0; lane < 2; lane++ {
		var id string
		for i := 0; ; i++ {
			id = fmt.Sprintf("lane%d-%d", lane, i)
			if session.ShardOf(id, 2) == lane {
				break
			}
		}
		s, err := mgr.Create(session.Config{
			ID: id, Scores: scores, Preds: preds, Calibrated: true,
			Options: oasis.Options{Strata: 5, Seed: uint64(7 + lane)},
		})
		if err != nil {
			t.Fatal(err)
		}
		committed[lane] = len(driveRound(t, s, 8, truth))
	}
	return dir, committed
}

// TestOutOfRangeShardTagRejected appends a CRC-valid record whose shard tag
// is outside the journal's lane range: the CRC proves a writer framed it on
// purpose, so it is real corruption — recovery must refuse, never silently
// merge or truncate it away.
func TestOutOfRangeShardTagRejected(t *testing.T) {
	dir, _ := twoLaneFixture(t)
	frame := appendRecord(nil, 7, []byte(`{"lsn":999,"type":"restart"}`))
	newest := newestLaneSegment(t, dir, 0)
	f, err := os.OpenFile(newest, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
	f.Close()
	_, err = Open(dir, session.NewManager(session.ManagerOptions{Shards: 2}), Options{Fsync: "off"})
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range shard tag not rejected: %v", err)
	}
}

// TestWrongLaneRecordRejected plants a CRC-valid record tagged for lane 1
// inside lane 0's segment: a record can only be trusted in the lane its tag
// names, so replay must refuse the mismatch.
func TestWrongLaneRecordRejected(t *testing.T) {
	dir, _ := twoLaneFixture(t)
	frame := appendRecord(nil, 1, []byte(`{"lsn":999,"type":"restart"}`))
	newest := newestLaneSegment(t, dir, 0)
	f, err := os.OpenFile(newest, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
	f.Close()
	_, err = Open(dir, session.NewManager(session.ManagerOptions{Shards: 2}), Options{Fsync: "off"})
	if err == nil || !strings.Contains(err.Error(), "tagged lane 1") {
		t.Fatalf("wrong-lane record not rejected: %v", err)
	}
}

// TestMissingLaneRejected deletes every file of one lane: once any lane
// holds records, a lane without segments means acknowledged events
// vanished, and recovery must refuse rather than silently merge the
// surviving lanes.
func TestMissingLaneRejected(t *testing.T) {
	dir, _ := twoLaneFixture(t)
	for _, idx := range dirInv(t, dir).laneSegs[1] {
		if err := os.Remove(filepath.Join(dir, segmentName(1, idx))); err != nil {
			t.Fatal(err)
		}
	}
	_, err := Open(dir, session.NewManager(session.ManagerOptions{Shards: 2}), Options{Fsync: "off"})
	if err == nil || !strings.Contains(err.Error(), "missing a lane") {
		t.Fatalf("missing lane not rejected: %v", err)
	}
}

// TestMissingLaneRejectedWithEmptySegments covers the sneaky variant of the
// missing-lane case: after a compaction the surviving lanes' active
// segments can be 0 bytes (everything folded into the lane snapshots, and a
// power cut may drop unsynced restart records), so the "does any lane hold
// records" signal is dark — the lane snapshots must then carry the
// rejection, or a vanished lane's acknowledged labels would silently
// disappear.
func TestMissingLaneRejectedWithEmptySegments(t *testing.T) {
	scores, preds, truth := walPool(400, 67)
	dir := t.TempDir()
	mgr := session.NewManager(session.ManagerOptions{Shards: 2})
	j := mustOpen(t, dir, mgr, Options{Fsync: "off"})
	for lane := 0; lane < 2; lane++ {
		var id string
		for i := 0; ; i++ {
			id = fmt.Sprintf("el%d-%d", lane, i)
			if session.ShardOf(id, 2) == lane {
				break
			}
		}
		s, err := mgr.Create(session.Config{
			ID: id, Scores: scores, Preds: preds, Calibrated: true,
			Options: oasis.Options{Strata: 5, Seed: uint64(9 + lane)},
		})
		if err != nil {
			t.Fatal(err)
		}
		driveRound(t, s, 6, truth)
	}
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	// Simulate the power cut: post-compaction active segments lose their
	// unsynced bytes, so every surviving segment is empty.
	inv := dirInv(t, dir)
	for lane := 0; lane < 2; lane++ {
		for _, idx := range inv.laneSegs[lane] {
			if err := os.Truncate(filepath.Join(dir, segmentName(lane, idx)), 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Lane 1's files vanish entirely (bad restore, partial copy).
	for _, idx := range inv.laneSegs[1] {
		if err := os.Remove(filepath.Join(dir, segmentName(1, idx))); err != nil {
			t.Fatal(err)
		}
	}
	for _, idx := range inv.laneSnaps[1] {
		if err := os.Remove(filepath.Join(dir, snapshotName(1, idx))); err != nil {
			t.Fatal(err)
		}
	}
	_, err := Open(dir, session.NewManager(session.ManagerOptions{Shards: 2}), Options{Fsync: "off"})
	if err == nil || !strings.Contains(err.Error(), "missing a lane") {
		t.Fatalf("vanished lane with all-empty surviving segments not rejected: %v", err)
	}
}

// TestNonPowerOfTwoMetaRejected pins the corruption diagnosis for a meta
// file no writer could have produced: the manager normalizes every shard
// count to a power of two, so a 3-lane meta is unsatisfiable by any -shards
// value and must be reported as corruption, not as a "reopen with
// -shards 3" dead-end.
func TestNonPowerOfTwoMetaRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, metaName), []byte(`{"version":2,"lanes":3}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, session.NewManager(session.ManagerOptions{Shards: 4}), Options{Fsync: "off"})
	if err == nil || !strings.Contains(err.Error(), "power of two") {
		t.Fatalf("non-power-of-two lane count not rejected as corruption: %v", err)
	}
}

// TestMixedLaneTornTails tears both lanes' newest segments at once — the
// multi-lane reading of a crash mid-write — and recovery must truncate each
// lane's tail independently and keep every acknowledged label.
func TestMixedLaneTornTails(t *testing.T) {
	dir, committed := twoLaneFixture(t)
	garbage := [][]byte{{0xde, 0xad, 0xbe}, {0xca, 0xfe, 0xba, 0xbe, 0x00}}
	for lane := 0; lane < 2; lane++ {
		f, err := os.OpenFile(newestLaneSegment(t, dir, lane), os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(garbage[lane]); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	rec := session.NewManager(session.ManagerOptions{Shards: 2})
	j := mustOpen(t, dir, rec, Options{Fsync: "off"})
	defer j.Close()
	if st := j.Stats(); st.ReplayTornBytes != len(garbage[0])+len(garbage[1]) {
		t.Fatalf("torn bytes dropped = %d, want %d", st.ReplayTornBytes, len(garbage[0])+len(garbage[1]))
	}
	total := 0
	for _, st := range rec.List() {
		total += st.LabelsCommitted
	}
	if want := committed[0] + committed[1]; total != want {
		t.Fatalf("recovered %d labels, want %d", total, want)
	}
}

// TestShardCountMismatchRejected pins the re-sharding refusal: a journal
// created at 4 lanes must refuse a 8-shard manager (a session's records all
// live in one lane, so re-sharding would scramble replay order) and accept
// a 4-shard one.
func TestShardCountMismatchRejected(t *testing.T) {
	scores, preds, truth := walPool(300, 3)
	dir := t.TempDir()
	mgr := session.NewManager(session.ManagerOptions{Shards: 4})
	mustOpen(t, dir, mgr, Options{Fsync: "off"})
	s, err := mgr.Create(session.Config{
		ID: "m", Scores: scores, Preds: preds, Calibrated: true,
		Options: oasis.Options{Strata: 5, Seed: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	committed := len(driveRound(t, s, 6, truth))

	if _, err := Open(dir, session.NewManager(session.ManagerOptions{Shards: 8}), Options{Fsync: "off"}); err == nil ||
		!strings.Contains(err.Error(), "lanes") {
		t.Fatalf("re-sharding a 4-lane journal to 8 shards was not refused: %v", err)
	}
	rec := session.NewManager(session.ManagerOptions{Shards: 4})
	j := mustOpen(t, dir, rec, Options{Fsync: "off"})
	defer j.Close()
	r, err := rec.Get("m")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Status().LabelsCommitted; got != committed {
		t.Fatalf("recovered %d labels, want %d", got, committed)
	}
}

// TestDirLanes pins the lane-count discovery oasis-server's default -shards
// uses: an existing v2 directory reports its recorded lane count, while a
// fresh directory reports 0 (caller's choice).
func TestDirLanes(t *testing.T) {
	fresh := t.TempDir()
	if n, err := DirLanes(fresh); err != nil || n != 0 {
		t.Fatalf("fresh dir: DirLanes = %d, %v; want 0, nil", n, err)
	}
	mgr := session.NewManager(session.ManagerOptions{Shards: 4})
	j := mustOpen(t, fresh, mgr, Options{Fsync: "off"})
	j.Close()
	if n, err := DirLanes(fresh); err != nil || n != 4 {
		t.Fatalf("4-lane dir: DirLanes = %d, %v; want 4, nil", n, err)
	}
}

// TestOpenRefusesV1Files pins the single-format contract: a pre-lane (v1)
// segment or snapshot name makes Open fail with the unsupported-format error
// naming the file — with or without wal-meta.json — and the refusal writes
// nothing: no meta file, no segment, no truncation. Silently ignoring such a
// file would boot the directory as fresh and drop the labels it holds.
func TestOpenRefusesV1Files(t *testing.T) {
	scores, preds, truth := walPool(200, 5)
	cases := []struct {
		name string
		v2   bool // start from a live two-lane journal (wal-meta.json present)
		file string
	}{
		{"v1 segment only", false, "wal-0000000000000001.log"},
		{"v1 snapshot only", false, "snap-0000000000000003.json"},
		{"v2 directory with a stray v1 segment", true, "wal-0000000000000001.log"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if tc.v2 {
				mgr := session.NewManager(session.ManagerOptions{Shards: 2})
				j := mustOpen(t, dir, mgr, Options{Fsync: "off"})
				s, err := mgr.Create(eqCfg("v2", session.MethodOASIS, 3, scores, preds))
				if err != nil {
					t.Fatal(err)
				}
				driveRound(t, s, 4, truth)
				if err := j.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.WriteFile(filepath.Join(dir, tc.file), []byte("pre-lane journal bytes"), 0o644); err != nil {
				t.Fatal(err)
			}
			before := dirContents(t, dir)
			_, err := Open(dir, session.NewManager(session.ManagerOptions{Shards: 2}), Options{Fsync: "off"})
			want := "wal: unsupported journal format: " + tc.file + " is a v1 (pre-lane) file"
			if err == nil || err.Error() != want {
				t.Fatalf("Open = %v, want %q", err, want)
			}
			if after := dirContents(t, dir); !maps.EqualFunc(before, after, bytes.Equal) {
				t.Fatalf("refused Open changed the directory: %d files before, %d after", len(before), len(after))
			}
		})
	}
}

// dirContents maps every file in dir to its bytes.
func dirContents(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}
