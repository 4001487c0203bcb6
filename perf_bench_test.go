package oasis_test

// Microbenchmarks for the public propose/commit hot path served by
// internal/server: batched proposals from a K=30 stratified pool, and the
// propose→commit cycle. `make bench-smoke` runs them once; BENCH_core.json
// holds their frozen history.

import (
	"testing"

	"oasis"
)

// benchSampler builds a sampler over an n-pair synthetic pool with K=30
// strata (the paper's default) and a warmed-up posterior.
func benchSampler(b *testing.B, n, warm int) (*oasis.Sampler, []bool) {
	b.Helper()
	scores, preds, truth, _ := syntheticScores(n, 3)
	p, err := oasis.NewPool(scores, preds, oasis.CalibratedScores)
	if err != nil {
		b.Fatal(err)
	}
	s, err := oasis.NewSampler(p, oasis.Options{Strata: 30, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	for s.LabelsCommitted() < warm {
		pairs, err := s.ProposeBatch(warm - s.LabelsCommitted())
		if err != nil {
			b.Fatal(err)
		}
		for _, pair := range pairs {
			if err := s.CommitLabel(pair, truth[pair]); err != nil {
				b.Fatal(err)
			}
		}
	}
	return s, truth
}

// BenchmarkProposeBatch measures drawing a batch of n proposals with no
// intervening commits — the GET /propose hot path. Proposals are released
// after each batch so the proposable supply (and the instrumental
// distribution) is steady; the per-op metric is one full batch.
func BenchmarkProposeBatch(b *testing.B) {
	for _, n := range []int{1, 64, 1024} {
		b.Run(benchName(n), func(b *testing.B) {
			s, _ := benchSampler(b, 100_000, 200)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pairs, err := s.ProposeBatch(n)
				if err != nil {
					b.Fatal(err)
				}
				if len(pairs) != n {
					b.Fatalf("short batch: %d of %d", len(pairs), n)
				}
				b.StopTimer()
				for _, pair := range pairs {
					s.Release(pair)
				}
				b.StartTimer()
			}
		})
	}
}

func benchName(n int) string {
	switch n {
	case 1:
		return "n=1"
	case 64:
		return "n=64"
	default:
		return "n=1024"
	}
}

// BenchmarkProposeCommit measures the full cycle: propose a batch of 64,
// commit every label (which re-adapts the instrumental distribution). The
// sampler is rebuilt off the clock when the pool nears exhaustion.
func BenchmarkProposeCommit(b *testing.B) {
	const n = 64
	s, truth := benchSampler(b, 200_000, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.LabelsCommitted() > 150_000 {
			b.StopTimer()
			s, truth = benchSampler(b, 200_000, 200)
			b.StartTimer()
		}
		pairs, err := s.ProposeBatch(n)
		if err != nil {
			b.Fatal(err)
		}
		for _, pair := range pairs {
			if err := s.CommitLabel(pair, truth[pair]); err != nil {
				b.Fatal(err)
			}
		}
	}
}
