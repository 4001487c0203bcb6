package session

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"oasis"
)

// passiveGolden drives a passive session through a fixed script: batches
// of the listed sizes, each committed but for its last proposal, which is
// held back (so later draws re-draw outstanding pairs), with the held-back
// leases expired before the sixth batch. The script never reaches the
// 32-miss storm limit. It returns the manager, the session and the
// proposals of every batch.
func passiveGolden(t *testing.T) (*Manager, *Session, [][]int) {
	t.Helper()
	clock := time.Unix(1_700_000_000, 0).UTC()
	scores, preds, truth := testPool(80, 5)
	m := NewManager(ManagerOptions{Now: func() time.Time { return clock }})
	s, err := m.Create(Config{
		ID: "golden", Method: MethodPassive,
		Scores: scores, Preds: preds, Calibrated: true,
		Options:  oasis.Options{Seed: 2024},
		LeaseTTL: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	var seq [][]int
	for round, n := range []int{5, 3, 6, 4, 2, 7, 5, 3, 6, 4} {
		if round == 5 {
			clock = clock.Add(2 * time.Minute)
		}
		props, err := s.Propose(n)
		if err != nil {
			t.Fatal(err)
		}
		var got, pairs []int
		var labels []bool
		for i, p := range props {
			got = append(got, p.Pair)
			if i < len(props)-1 {
				pairs = append(pairs, p.Pair)
				labels = append(labels, truth[p.Pair])
			}
		}
		seq = append(seq, got)
		if _, err := s.CommitBatch(pairs, labels); err != nil {
			t.Fatal(err)
		}
		clock = clock.Add(time.Second)
	}
	return m, s, seq
}

// TestPassiveSessionGolden pins a passive session to the values recorded
// from the session layer's former dedicated passive implementation:
// proposals, estimate bits, the Status and Diagnostics payloads (no
// initialEstimate, no strata block) and the manager snapshot bytes,
// "passive" key and shape included, so WAL directories written by it boot
// to identical state. The testdata files hold the recorded payloads.
func TestPassiveSessionGolden(t *testing.T) {
	m, s, seq := passiveGolden(t)
	want := [][]int{
		{4, 62, 5, 12, 61}, {19, 31, 20}, {44, 57, 74, 70, 29, 15}, {3, 52, 64, 32}, {51, 24},
		{15, 33, 38, 0, 40, 46, 77}, {10, 67, 58, 18, 76}, {21, 26, 32}, {59, 27, 71, 28, 36, 2}, {68, 30, 48, 1},
	}
	if !reflect.DeepEqual(seq, want) {
		t.Fatalf("proposals\n got %v\nwant %v", seq, want)
	}
	if got := math.Float64bits(s.Estimate()); got != 0x3fe89d89d89d89d9 {
		t.Fatalf("estimate bits %#x (%v), want 0x3fe89d89d89d89d9", got, s.Estimate())
	}
	status, err := json.Marshal(s.Status())
	if err != nil {
		t.Fatal(err)
	}
	const wantStatus = `{"id":"golden","method":"passive","poolSize":80,"estimate":0.7692307692307693,"labelsCommitted":35,"pendingProposals":5,"budget":0,"remaining":-1}`
	if string(status) != wantStatus {
		t.Fatalf("status\n got %s\nwant %s", status, wantStatus)
	}
	diagJSON, err := json.Marshal(s.Diagnostics())
	if err != nil {
		t.Fatal(err)
	}
	requireGoldenFile(t, "testdata/passive-golden-diagnostics.json", diagJSON)
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	requireGoldenFile(t, "testdata/passive-golden-snapshot.json", snap)

	// The recorded snapshot restores to the same state: snapshotting the
	// restored manager gives its bytes back.
	m2 := newTestManager(nil)
	if err := m2.RestoreReplay(snap); err != nil {
		t.Fatal(err)
	}
	again, err := m2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, snap) {
		t.Fatal("restored passive session snapshots to different bytes")
	}
}

func requireGoldenFile(t *testing.T, path string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs\n got %s\nwant %s", path, got, want)
	}
}

// TestRestoreRejectsDuplicatePassivePending feeds a passive snapshot whose
// pending list names one pair twice: the restore must fail and register
// nothing, as an OASIS snapshot with the same defect does.
func TestRestoreRejectsDuplicatePassivePending(t *testing.T) {
	data, err := os.ReadFile("testdata/passive-golden-snapshot.json")
	if err != nil {
		t.Fatal(err)
	}
	const one = `{"pair":1,"w":1}`
	if !bytes.Contains(data, []byte(one)) {
		t.Fatalf("fixture snapshot has no pending entry %s", one)
	}
	doubled := bytes.Replace(data, []byte(one), []byte(one+","+one), 1)
	m := newTestManager(nil)
	if err := m.RestoreReplay(doubled); err == nil {
		t.Fatal("restore accepted a passive snapshot with a duplicated pending pair")
	}
	if m.Len() != 0 {
		t.Fatalf("aborted restore registered %d sessions", m.Len())
	}
}
