package session

import (
	"context"
	"strconv"
	"testing"

	"oasis"
	"oasis/internal/trace"
)

// rebuildStats reads the session sampler's cumulative rebuild counters.
func rebuildStats(t *testing.T, s *Session) (uint64, int64) {
	t.Helper()
	return s.sampler.RebuildStats()
}

// proposeCommit runs one propose(n) + labels round on ctx.
func proposeCommit(t *testing.T, ctx context.Context, s *Session, n int, truth []bool) {
	t.Helper()
	props, err := s.ProposeCtx(ctx, n)
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([]int, len(props))
	labels := make([]bool, len(props))
	for i, p := range props {
		pairs[i], labels[i] = p.Pair, truth[p.Pair]
	}
	if _, err := s.CommitBatchCtx(ctx, pairs, labels); err != nil {
		t.Fatal(err)
	}
}

// TestRebuildSpansOnlyTimeTracedCalls: rebuilds are counted on every call,
// but the clock is read only inside a traced sampler call, whose
// sampler.rebuild span carries a measured duration and the rebuild count.
func TestRebuildSpansOnlyTimeTracedCalls(t *testing.T) {
	scores, preds, truth := testPool(2000, 3)
	m := newTestManager(nil)
	s, err := m.Create(Config{Scores: scores, Preds: preds, Calibrated: true, Options: oasis.Options{Strata: 10, Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}

	count0, nanos0 := rebuildStats(t, s)
	for i := 0; i < 3; i++ {
		proposeCommit(t, context.Background(), s, 4, truth)
	}
	count1, nanos1 := rebuildStats(t, s)
	if count1 <= count0 {
		t.Fatalf("untraced rounds: rebuild count %d -> %d, want it to advance", count0, count1)
	}
	if nanos1 != nanos0 {
		t.Fatalf("untraced rounds: rebuild nanos %d -> %d, want no clock reads", nanos0, nanos1)
	}

	tr := trace.NewTrace(trace.MakeTraceID(1, 1), trace.MakeSpanID(1, 1), trace.SpanID{}, 0)
	proposeCommit(t, trace.NewContext(context.Background(), tr), s, 4, truth)
	var spans, rebuilds int
	for _, sp := range tr.Export().Spans {
		if sp.Name != "sampler.rebuild" {
			continue
		}
		spans++
		if sp.DurUs <= 0 {
			t.Errorf("sampler.rebuild span duration %vus, want > 0", sp.DurUs)
		}
		n, err := strconv.Atoi(sp.Attrs["rebuilds"])
		if err != nil || n < 1 {
			t.Errorf("sampler.rebuild rebuilds attr %q, want >= 1", sp.Attrs["rebuilds"])
		}
		rebuilds += n
	}
	if spans == 0 {
		t.Fatal("traced propose+commit recorded no sampler.rebuild span")
	}
	count2, nanos2 := rebuildStats(t, s)
	if nanos2 <= nanos1 {
		t.Fatalf("traced round: rebuild nanos %d -> %d, want them measured", nanos1, nanos2)
	}
	if got := count2 - count1; got != uint64(rebuilds) {
		t.Fatalf("traced round: %d rebuilds counted, spans report %d", got, rebuilds)
	}

	// Timing ends with the traced call.
	proposeCommit(t, context.Background(), s, 4, truth)
	count3, nanos3 := rebuildStats(t, s)
	if count3 <= count2 || nanos3 != nanos2 {
		t.Fatalf("untraced round after a traced one: count %d -> %d, nanos %d -> %d", count2, count3, nanos2, nanos3)
	}
}
