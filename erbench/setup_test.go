package erbench

import (
	"math"
	"testing"

	"oasis"
	"oasis/internal/core"
	"oasis/internal/experiment"
	"oasis/internal/oracle"
	"oasis/internal/rng"
	"oasis/internal/stats"
	"oasis/internal/strata"
)

// referenceCurves is the unshared harness: each run builds its own sampler
// with core.New (validating and flattening the pool) and its own oracle
// with oracle.FromProbs, exactly as every run did before the set-up was
// shared, and the runs are aggregated the way experiment.Run aggregates.
func referenceCurves(t *testing.T, b *BuiltPool, hc HarnessConfig) (meanAbsErr, stdDev, defined []float64, iters float64) {
	t.Helper()
	hc = hc.withDefaults()
	p := b.inner
	s, err := strata.CSF(p, hc.Strata, 0)
	if err != nil {
		t.Fatal(err)
	}
	trueF := p.TrueFMeasure(hc.Alpha)
	runs := make([][]float64, hc.Runs)
	for r := range runs {
		seed := hc.Seed + uint64(r)
		m, err := core.New(p, s, core.Config{
			Alpha:         hc.Alpha,
			Epsilon:       hc.Epsilon,
			PriorStrength: hc.PriorStrength,
		}, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		o := oracle.FromProbs(p.TruthProb, rng.New(seed^0x9e3779b97f4a7c15))
		res, err := experiment.RunOne(m, o, hc.Budget, hc.Checkpoints)
		if err != nil {
			t.Fatal(err)
		}
		runs[r] = res.Estimates
		iters += float64(res.Iterations)
	}
	for ci := range hc.Checkpoints {
		var online stats.Online
		var absErr float64
		n := 0
		for _, est := range runs {
			if math.IsNaN(est[ci]) {
				continue
			}
			n++
			online.Add(est[ci])
			absErr += math.Abs(est[ci] - trueF)
		}
		mae, sd := math.NaN(), math.NaN()
		if n > 0 {
			mae, sd = absErr/float64(n), online.StdDev()
		}
		meanAbsErr = append(meanAbsErr, mae)
		stdDev = append(stdDev, sd)
		defined = append(defined, float64(n)/float64(hc.Runs))
	}
	return meanAbsErr, stdDev, defined, iters / float64(hc.Runs)
}

// sameBits compares float slices bit for bit (NaN equal to NaN).
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s[%d] = %v, reference %v", what, i, got[i], want[i])
		}
	}
}

// bernoulliPool copies b with each pair's truth probability set to its
// calibrated score, so the oracle is a per-run Bernoulli stream.
func bernoulliPool(b *BuiltPool) *BuiltPool {
	q := *b.inner
	q.TruthProb = make([]float64, q.N())
	for i, s := range q.Scores {
		q.TruthProb[i] = math.Min(1, math.Max(0, s))
	}
	return &BuiltPool{Pool: oasis.WrapPool(&q), TruthProb: q.TruthProb, Name: b.Name + "-bernoulli", inner: &q}
}

// TestSharedSetupMatchesPerRunSetup: the OASIS harness shares one flattened
// membership, one pool validation and (for 0/1 truth) one oracle across
// runs; its curves must be bit-identical to building everything per run,
// for a deterministic and a Bernoulli oracle, with runs in parallel.
func TestSharedSetupMatchesPerRunSetup(t *testing.T) {
	det := buildSmall(t, "restaurant", true)
	for _, b := range []*BuiltPool{det, bernoulliPool(det)} {
		_, isDet := oracle.DeterministicFromProbs(b.TruthProb)
		if isDet != (b == det) {
			t.Fatalf("%s: deterministic truth = %v", b.Name, isDet)
		}
		hc := HarnessConfig{Budget: 150, Runs: 12, Strata: 12, Seed: 21, Workers: 4,
			Checkpoints: experiment.LinearGrid(150, 15)}
		c, err := RunCurves(b, OASIS, hc)
		if err != nil {
			t.Fatal(err)
		}
		mae, sd, defined, iters := referenceCurves(t, b, hc)
		sameBits(t, b.Name+" MeanAbsErr", c.MeanAbsErr, mae)
		sameBits(t, b.Name+" StdDev", c.StdDev, sd)
		sameBits(t, b.Name+" DefinedFrac", c.DefinedFrac, defined)
		if c.MeanIterations != iters {
			t.Fatalf("%s: mean iterations %v, reference %v", b.Name, c.MeanIterations, iters)
		}
	}
}
