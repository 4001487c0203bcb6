package erbench

import (
	"math"
	"testing"
)

func TestDatasetNames(t *testing.T) {
	names := DatasetNames()
	if len(names) != 6 {
		t.Fatalf("names %v", names)
	}
	if names[0] != "Amazon-GoogleProducts" || names[5] != "tweets100k" {
		t.Errorf("order %v", names)
	}
}

func TestInventory(t *testing.T) {
	infos, err := Inventory(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 6 {
		t.Fatalf("inventory %d", len(infos))
	}
	for _, info := range infos {
		if info.Pairs <= 0 || info.Matches <= 0 {
			t.Errorf("%s: pairs %d matches %d", info.Name, info.Pairs, info.Matches)
		}
		if info.PaperPairs <= 0 {
			t.Errorf("%s: missing paper reference", info.Name)
		}
		// Pair counts should match the paper's within 2% (match counts are
		// exact by construction for two-source, approximate for dedup).
		ratio := float64(info.Pairs) / float64(info.PaperPairs)
		if info.Name != "restaurant" && (ratio < 0.9 || ratio > 1.1) {
			t.Errorf("%s: pair count %d vs paper %d", info.Name, info.Pairs, info.PaperPairs)
		}
	}
}

func buildSmall(t *testing.T, name string, cal bool) *BuiltPool {
	t.Helper()
	b, err := BuildPool(name, PoolConfig{Scale: 0.04, Calibrate: cal, Seed: 3, TrainPairs: 1200})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBuildPoolOperatingPoint(t *testing.T) {
	b := buildSmall(t, "Abt-Buy", false)
	if b.Pool.N() <= 0 {
		t.Fatal("empty pool")
	}
	if math.IsNaN(b.F50) || b.F50 <= 0.05 || b.F50 > 1 {
		t.Errorf("F50 = %v", b.F50)
	}
	if b.Precision < 0 || b.Precision > 1 || b.Recall < 0 || b.Recall > 1 {
		t.Errorf("operating point %v/%v", b.Precision, b.Recall)
	}
	if got := b.TrueF(0.5); math.Abs(got-b.F50) > 1e-12 {
		t.Errorf("TrueF %v vs F50 %v", got, b.F50)
	}
}

func TestBuildPoolUnknownName(t *testing.T) {
	if _, err := BuildPool("nope", PoolConfig{}); err == nil {
		t.Error("expected error for unknown dataset")
	}
}

func TestRunCurvesOASISBeatsPassive(t *testing.T) {
	b := buildSmall(t, "Abt-Buy", false)
	cfg := HarnessConfig{Budget: 400, Runs: 12, Seed: 5}
	oasisCurves, err := RunCurves(b, OASIS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	passiveCurves, err := RunCurves(b, Passive, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lastO := oasisCurves.MeanAbsErr[len(oasisCurves.MeanAbsErr)-1]
	lastP := passiveCurves.MeanAbsErr[len(passiveCurves.MeanAbsErr)-1]
	if math.IsNaN(lastO) {
		t.Fatal("OASIS curve undefined at final budget")
	}
	// Passive may be undefined (no match sampled) — that itself demonstrates
	// the claim; otherwise OASIS must have smaller error.
	if !math.IsNaN(lastP) && lastO >= lastP {
		t.Errorf("OASIS %v not below passive %v", lastO, lastP)
	}
}

func TestRunTiming(t *testing.T) {
	b := buildSmall(t, "cora", false)
	tm, err := RunTiming(b, OASIS, HarnessConfig{Budget: 150, Runs: 2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if tm.PerRun <= 0 || tm.PerIteration <= 0 {
		t.Errorf("timings %v %v", tm.PerRun, tm.PerIteration)
	}
	if tm.Method == "" {
		t.Error("missing method name")
	}
}

func TestRunConvergence(t *testing.T) {
	b := buildSmall(t, "Abt-Buy", true)
	conv, err := RunConvergence(b, HarnessConfig{Budget: 400, Seed: 7}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(conv.Labels) == 0 {
		t.Fatal("no convergence samples")
	}
	for i := range conv.KL {
		if conv.KL[i] < 0 {
			t.Errorf("KL[%d] = %v", i, conv.KL[i])
		}
	}
}

func TestStrataSummaryHeavyTail(t *testing.T) {
	b := buildSmall(t, "Abt-Buy", true)
	rows, err := StrataSummary(b, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Fatalf("strata %d", len(rows))
	}
	// Figure 1 shape: the largest stratum has a low mean score.
	largest := rows[0]
	for _, r := range rows {
		if r.Size > largest.Size {
			largest = r
		}
	}
	maxScore := rows[0].MeanScore
	for _, r := range rows {
		if r.MeanScore > maxScore {
			maxScore = r.MeanScore
		}
	}
	if largest.MeanScore > maxScore/2 {
		t.Errorf("largest stratum (size %d) has high mean score %v (max %v)",
			largest.Size, largest.MeanScore, maxScore)
	}
}

func TestFinalError(t *testing.T) {
	b := buildSmall(t, "restaurant", false)
	mean, ci, err := FinalError(b, OASIS, HarnessConfig{Budget: 200, Runs: 8, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(mean) || mean < 0 {
		t.Errorf("mean %v", mean)
	}
	if ci < 0 {
		t.Errorf("ci %v", ci)
	}
}

func TestMethodKindString(t *testing.T) {
	kinds := []MethodKind{Passive, Stratified, ImportanceSampling, ImportanceSamplingNaive, OASIS}
	for _, k := range kinds {
		if k.String() == "unknown" {
			t.Errorf("kind %d missing name", k)
		}
	}
	if MethodKind(99).String() != "unknown" {
		t.Error("unknown kind should say so")
	}
}

func TestCalibratedPoolScoresAreProbabilities(t *testing.T) {
	b := buildSmall(t, "DBLP-ACM", true)
	inner := b.Pool.Internal()
	if !inner.Probabilistic {
		t.Fatal("calibrated build should mark pool probabilistic")
	}
	for i := 0; i < inner.N(); i++ {
		if inner.Scores[i] < 0 || inner.Scores[i] > 1 {
			t.Fatalf("score %v out of [0,1]", inner.Scores[i])
		}
	}
}

func TestRunDiagnostics(t *testing.T) {
	b := buildSmall(t, "restaurant", false)
	snap, err := RunDiagnostics(b, HarnessConfig{Budget: 120, Strata: 8, Seed: 11}, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Dataset != "restaurant" {
		t.Errorf("dataset %q", snap.Dataset)
	}
	if len(snap.Series) == 0 || snap.Seen != 30 {
		t.Fatalf("series len=%d seen=%d, want non-empty with 30 recorded", len(snap.Series), snap.Seen)
	}
	// 30 points into a 16-ring must have downsampled at least once, and the
	// retained labels axis stays monotone.
	if snap.Stride < 2 {
		t.Errorf("stride %d, want >= 2", snap.Stride)
	}
	for i := 1; i < len(snap.Series); i++ {
		if snap.Series[i].Labels < snap.Series[i-1].Labels {
			t.Fatalf("labels axis not monotone at %d", i)
		}
	}
	// The newest point may be off the stride grid (discarded by design),
	// but the retained tail must be within one stride of the budget.
	if last := snap.Series[len(snap.Series)-1]; last.Labels <= 0 || last.Labels > 120 ||
		120-last.Labels > int(snap.Stride)*4 {
		t.Errorf("final retained point at %d labels (stride %d), want near 120", last.Labels, snap.Stride)
	}
	if len(snap.Strata) == 0 {
		t.Error("no per-stratum diagnostics")
	}
	if snap.State == "" || snap.Final.Terms <= 0 {
		t.Errorf("state %q terms %d", snap.State, snap.Final.Terms)
	}
}

// TestBuildPoolDeterministic: a pool is a pure function of its config, so
// two builds in one process must agree bit for bit — for a two-source
// dataset and a dedup dataset alike.
func TestBuildPoolDeterministic(t *testing.T) {
	for _, name := range []string{"Abt-Buy", "restaurant"} {
		a, b := buildSmall(t, name, false), buildSmall(t, name, false)
		if a.Pool.N() != b.Pool.N() {
			t.Fatalf("%s: pool sizes %d and %d", name, a.Pool.N(), b.Pool.N())
		}
		diff := 0
		for i, s := range a.inner.Scores {
			if math.Float64bits(s) != math.Float64bits(b.inner.Scores[i]) ||
				a.TruthProb[i] != b.TruthProb[i] || a.inner.Preds[i] != b.inner.Preds[i] {
				diff++
			}
		}
		if diff > 0 {
			t.Errorf("%s: %d of %d pairs differ between two builds at one seed", name, diff, a.Pool.N())
		}
	}
}

// TestRunDiagnosticsCountsDistinctLabels checks the labels axis counts
// distinct pairs committed: with a budget of twice the pool, the run labels
// every pair once and stops, so no point exceeds Pool.N() and the last one
// sits exactly at it.
func TestRunDiagnosticsCountsDistinctLabels(t *testing.T) {
	b := buildSmall(t, "restaurant", false)
	n := b.Pool.N()
	snap, err := RunDiagnostics(b, HarnessConfig{Budget: 2 * n, Strata: 8, Seed: 5}, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Stride != 1 || len(snap.Series) == 0 {
		t.Fatalf("series len=%d stride=%d, want every batch retained", len(snap.Series), snap.Stride)
	}
	for _, p := range snap.Series {
		if p.Labels > n {
			t.Fatalf("labels axis reached %d on a pool of %d pairs", p.Labels, n)
		}
	}
	if last := snap.Series[len(snap.Series)-1]; last.Labels != n || last.Terms < n {
		t.Fatalf("final point at %d labels, %d terms; want all %d pairs labelled", last.Labels, last.Terms, n)
	}
}

// TestFinalErrorBitsAtFixedSeed pins the offline baselines and OASIS to the
// values the harness produced before passive sessions moved onto the
// shared propose/commit engine: offline runs still step the methods, so the
// figures must repeat bit for bit.
func TestFinalErrorBitsAtFixedSeed(t *testing.T) {
	b := buildSmall(t, "restaurant", false)
	for _, tc := range []struct {
		kind     MethodKind
		mean, ci uint64
	}{
		{Passive, 0x3fd5555555555556, 0x0},
		{ImportanceSampling, 0x3fa7713a6a189e38, 0x3fa2c6c9b04d84f0},
		{OASIS, 0x3fc64cad194778e2, 0x3fc62f72db4b278c},
		{Stratified, 0x3fe2aaaaaaaaaaaa, 0x3fd3343951132fe0},
	} {
		mean, ci, err := FinalError(b, tc.kind, HarnessConfig{Budget: 1000, Runs: 8, Seed: 8})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(mean) != tc.mean || math.Float64bits(ci) != tc.ci {
			t.Errorf("%v: FinalError = %v ± %v (%#x, %#x), want %#x, %#x",
				tc.kind, mean, ci, math.Float64bits(mean), math.Float64bits(ci), tc.mean, tc.ci)
		}
	}
}
