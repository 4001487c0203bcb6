package oasis_test

// Tests for the rejection-free ProposeBatch contract: exact-size batches
// while the proposable supply lasts, typed exhaustion, deterministic
// continuation through State/RestoreState (the proposal engine's caches are
// a pure function of the snapshotted state), and lease bookkeeping.

import (
	"errors"
	"math"
	"testing"

	"oasis"
)

func mustSampler(t *testing.T, n int, opts oasis.Options) (*oasis.Sampler, []bool) {
	t.Helper()
	scores, preds, truth, _ := syntheticScores(n, 31)
	p, err := oasis.NewPool(scores, preds, oasis.CalibratedScores)
	if err != nil {
		t.Fatal(err)
	}
	s, err := oasis.NewSampler(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, truth
}

// TestRestoreContinuesProposalsExactly: a sampler restored from a snapshot
// proposes the exact same batches as the live sampler it was taken from —
// the cached instrumental distribution and the proposability accounting are
// rebuilt, not persisted, so they must be pure functions of the snapshot.
func TestRestoreContinuesProposalsExactly(t *testing.T) {
	opts := oasis.Options{Strata: 20, Seed: 17}
	live, truth := mustSampler(t, 4000, opts)

	commitBatch := func(s *oasis.Sampler, pairs []int) {
		t.Helper()
		for _, pair := range pairs {
			if err := s.CommitLabel(pair, truth[pair]); err != nil {
				t.Fatal(err)
			}
		}
	}
	for round := 0; round < 30; round++ {
		pairs, err := live.ProposeBatch(8)
		if err != nil {
			t.Fatal(err)
		}
		commitBatch(live, pairs)
	}

	restored, _ := mustSampler(t, 4000, opts)
	if err := restored.RestoreState(live.State()); err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 20; round++ {
		b1, err1 := live.ProposeBatch(8)
		b2, err2 := restored.ProposeBatch(8)
		if err1 != nil || err2 != nil {
			t.Fatalf("round %d: errors %v / %v", round, err1, err2)
		}
		if len(b1) != len(b2) {
			t.Fatalf("round %d: batch sizes %d vs %d", round, len(b1), len(b2))
		}
		for i := range b1 {
			if b1[i] != b2[i] {
				t.Fatalf("round %d: batches diverge at %d: %d vs %d", round, i, b1[i], b2[i])
			}
		}
		commitBatch(live, b1)
		commitBatch(restored, b2)
		g1, g2 := live.Estimate(), restored.Estimate()
		if g1 != g2 && !(math.IsNaN(g1) && math.IsNaN(g2)) {
			t.Fatalf("round %d: estimates diverge: %v vs %v", round, g1, g2)
		}
	}
}

// TestRestoreRejectsOutOfRangeLabels: a corrupted snapshot whose label map
// points outside the pool must be a clean error, not an index panic while
// rebuilding the proposability accounting (oasis-server restores snapshots
// from disk at startup).
func TestRestoreRejectsOutOfRangeLabels(t *testing.T) {
	s, _ := mustSampler(t, 50, oasis.Options{Strata: 4, Seed: 1})
	st := s.State()
	st.Labels = map[int]bool{999999: true}
	if err := s.RestoreState(st); err == nil {
		t.Fatal("restore accepted a label for a pair outside the pool")
	}
	st.Labels = map[int]bool{-3: false}
	if err := s.RestoreState(st); err == nil {
		t.Fatal("restore accepted a negative pair id")
	}
	// The sampler must still be usable after the rejected restores.
	if pairs, err := s.ProposeBatch(5); err != nil || len(pairs) != 5 {
		t.Fatalf("sampler unusable after rejected restore: %d pairs, err %v", len(pairs), err)
	}
}

// TestProposeBatchExhaustion checks the typed-exhaustion contract on a tiny
// pool: the partial batch comes back with ErrExhausted, released pairs
// return to the supply, and a fully labelled pool is terminal.
func TestProposeBatchExhaustion(t *testing.T) {
	s, truth := mustSampler(t, 30, oasis.Options{Strata: 4, Seed: 3})

	pairs, err := s.ProposeBatch(50)
	if !errors.Is(err, oasis.ErrExhausted) {
		t.Fatalf("over-sized batch: err = %v, want ErrExhausted", err)
	}
	if len(pairs) != 30 {
		t.Fatalf("got %d proposals of 30-pair pool, want all 30", len(pairs))
	}
	seen := map[int]bool{}
	for _, pair := range pairs {
		if seen[pair] {
			t.Fatalf("pair %d proposed twice in one batch", pair)
		}
		seen[pair] = true
	}

	// Nothing proposable: empty batch + typed error.
	if extra, err := s.ProposeBatch(1); !errors.Is(err, oasis.ErrExhausted) || len(extra) != 0 {
		t.Fatalf("exhausted propose: %v pairs, err %v", extra, err)
	}

	// Releasing returns supply, exactly that much.
	for _, pair := range pairs[:5] {
		if !s.Release(pair) {
			t.Fatalf("release of outstanding pair %d failed", pair)
		}
	}
	again, err := s.ProposeBatch(10)
	if !errors.Is(err, oasis.ErrExhausted) {
		t.Fatalf("after partial release: err = %v, want ErrExhausted", err)
	}
	if len(again) != 5 {
		t.Fatalf("after releasing 5, re-proposed %d pairs, want 5", len(again))
	}

	// Commit everything; the pool is then terminally exhausted.
	for _, pair := range append(append([]int{}, pairs[5:]...), again...) {
		if err := s.CommitLabel(pair, truth[pair]); err != nil {
			t.Fatal(err)
		}
	}
	if s.LabelsCommitted() != 30 {
		t.Fatalf("labels committed = %d, want 30", s.LabelsCommitted())
	}
	if _, err := s.ProposeBatch(1); !errors.Is(err, oasis.ErrExhausted) {
		t.Fatalf("fully labelled pool: err = %v, want ErrExhausted", err)
	}
}

// TestProposeBatchExactSizeNearExhaustion drives the pool to 90%+ labelled —
// the regime where the seed implementation burned its draw cap and returned
// short batches — and checks the batch is still exactly the remaining
// supply, each pair distinct and fresh.
func TestProposeBatchExactSizeNearExhaustion(t *testing.T) {
	const n = 600
	s, truth := mustSampler(t, n, oasis.Options{Strata: 10, Seed: 21})
	labelled := 0
	for labelled < 550 {
		pairs, err := s.ProposeBatch(50)
		if err != nil && !errors.Is(err, oasis.ErrExhausted) {
			t.Fatal(err)
		}
		for _, pair := range pairs {
			if err := s.CommitLabel(pair, truth[pair]); err != nil {
				t.Fatal(err)
			}
			labelled++
		}
	}
	remaining := n - labelled
	pairs, err := s.ProposeBatch(remaining)
	if err != nil {
		t.Fatalf("ProposeBatch(%d) with exactly that much supply: %v", remaining, err)
	}
	if len(pairs) != remaining {
		t.Fatalf("batch = %d pairs, want the full remaining supply %d", len(pairs), remaining)
	}
	seen := map[int]bool{}
	for _, pair := range pairs {
		if seen[pair] {
			t.Fatalf("pair %d proposed twice", pair)
		}
		seen[pair] = true
		if err := s.CommitLabel(pair, truth[pair]); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.LabelsCommitted(); got != n {
		t.Fatalf("labels committed = %d, want %d", got, n)
	}
	if f := s.Estimate(); math.IsNaN(f) || f < 0 || f > 1 {
		t.Fatalf("estimate after full labelling = %v", f)
	}
}

// TestCommitLabelLifecycle covers the per-pair state machine: commit of an
// unproposed or released pair is rejected, duplicate commits are no-ops, and
// Pending tracks the outstanding set.
func TestCommitLabelLifecycle(t *testing.T) {
	s, _ := mustSampler(t, 500, oasis.Options{Strata: 8, Seed: 2})
	if err := s.CommitLabel(3, true); !errors.Is(err, oasis.ErrNotProposed) {
		t.Fatalf("commit of unproposed pair: %v, want ErrNotProposed", err)
	}
	pairs, err := s.ProposeBatch(6)
	if err != nil || len(pairs) != 6 {
		t.Fatalf("propose: %d pairs, err %v", len(pairs), err)
	}
	if got := len(s.Pending()); got != 6 {
		t.Fatalf("pending = %d, want 6", got)
	}
	if !s.Release(pairs[0]) {
		t.Fatal("release of outstanding pair failed")
	}
	if s.Release(pairs[0]) {
		t.Fatal("double release succeeded")
	}
	if err := s.CommitLabel(pairs[0], true); !errors.Is(err, oasis.ErrNotProposed) {
		t.Fatalf("commit after release: %v, want ErrNotProposed", err)
	}
	if err := s.CommitLabel(pairs[1], true); err != nil {
		t.Fatal(err)
	}
	if err := s.CommitLabel(pairs[1], false); err != nil {
		t.Fatalf("duplicate commit: %v, want nil no-op", err)
	}
	if got := s.LabelsCommitted(); got != 1 {
		t.Fatalf("labels committed = %d, want 1 (duplicate must not double-count)", got)
	}
	if got := len(s.Pending()); got != 4 {
		t.Fatalf("pending = %d, want 4", got)
	}
}

// TestPassiveSamplerSharesTheEngine covers the Passive baseline on the
// propose/commit engine: single-pair batches reproduce the offline Passive
// method's Run bit for bit at the same seed (until the storm escape, which
// this budget never reaches), a labelled-out pool still fills exact-size
// batches through the storm escape, and the OASIS-only reports are absent.
func TestPassiveSamplerSharesTheEngine(t *testing.T) {
	const n, budget = 4000, 150
	scores, preds, truth, _ := syntheticScores(n, 31)
	p, err := oasis.NewPool(scores, preds, oasis.CalibratedScores)
	if err != nil {
		t.Fatal(err)
	}
	opts := oasis.Options{Seed: 9}
	m, err := oasis.NewPassiveSampler(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(func(i int) bool { return truth[i] }, budget)
	if err != nil {
		t.Fatal(err)
	}
	s := oasis.NewSamplerPassive(p, opts)
	for s.LabelsCommitted() < budget {
		pairs, err := s.ProposeBatch(1)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.CommitLabel(pairs[0], truth[pairs[0]]); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := s.Estimate(), res.FMeasure; math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("propose/commit estimate %v, Run estimate %v", got, want)
	}
	if s.K() != 1 || !math.IsNaN(s.InitialEstimate()) || s.StratumDiagnostics() != nil {
		t.Fatalf("passive sampler reports K=%d, initial %v, strata %v", s.K(), s.InitialEstimate(), s.StratumDiagnostics())
	}

	small := oasis.NewSamplerPassive(mustPool(t, 300), oasis.Options{Seed: 4})
	for labelled := 0; labelled < 300; {
		want := min(40, 300-labelled)
		pairs, err := small.ProposeBatch(want)
		if len(pairs) != want || err != nil {
			t.Fatalf("at %d labelled: batch of %d, err %v; want %d", labelled, len(pairs), err, want)
		}
		for _, pair := range pairs {
			if err := small.CommitLabel(pair, pair%7 == 0); err != nil {
				t.Fatal(err)
			}
			labelled++
		}
	}
	if _, err := small.ProposeBatch(1); !errors.Is(err, oasis.ErrExhausted) {
		t.Fatalf("fully labelled pool: err = %v, want ErrExhausted", err)
	}
}

func mustPool(t *testing.T, n int) *oasis.Pool {
	t.Helper()
	scores, preds, _, _ := syntheticScores(n, 33)
	p, err := oasis.NewPool(scores, preds, oasis.CalibratedScores)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
