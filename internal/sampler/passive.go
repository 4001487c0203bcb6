package sampler

import (
	"errors"
	"math"

	"oasis/internal/core"
	"oasis/internal/estimator"
	"oasis/internal/oracle"
	"oasis/internal/pool"
	"oasis/internal/rng"
)

// Passive samples record pairs uniformly at random with replacement and
// estimates F with the plain statistic of Eqn. (1) — the paper's Passive
// baseline. Under extreme class imbalance it needs O(imbalance) draws per
// match found, which is the inefficiency OASIS exists to remove.
//
// Behind oasis.NewSamplerPassive's propose/commit bookkeeping, Passive is
// Algorithm 3 with one stratum holding every pair in index order, a stratum
// draw that consumes no randomness, unit importance weights and no
// adaptation: v = [1] forever. A pair is then drawn as Intn(N) from Rand,
// exactly as Step draws it.
type Passive struct {
	pool *pool.Pool
	est  *estimator.Weighted
	rng  *rng.RNG
}

// passiveV is the Passive instrumental distribution: all mass on the one
// stratum. Shared and read-only.
var passiveV = []float64{1}

// NewPassive builds a passive sampler for p estimating F_α.
func NewPassive(p *pool.Pool, alpha float64, r *rng.RNG) *Passive {
	return &Passive{
		pool: p,
		est:  estimator.NewWeighted(alpha),
		rng:  r,
	}
}

// Name identifies the method in reports.
func (s *Passive) Name() string { return "Passive" }

// Step draws one pair uniformly, labels it, and updates the estimate.
func (s *Passive) Step(b *oracle.Budgeted) error {
	i := s.rng.Intn(s.pool.N())
	label, err := b.TryLabel(i)
	if err != nil {
		return err
	}
	s.est.Add(1, label, s.pool.Preds[i])
	return nil
}

// Estimate returns the current F̂ (NaN until a match or predicted match has
// been sampled — exactly the paper's "undefined until first positive mass"
// behaviour).
func (s *Passive) Estimate() float64 { return s.est.Estimate() }

// DrawStratum returns the one stratum with unit weight.
func (s *Passive) DrawStratum() (int, float64) { return 0, 1 }

// Rand exposes the sampler's random stream.
func (s *Passive) Rand() *rng.RNG { return s.rng }

// InstrumentalCached returns v = [1].
func (s *Passive) InstrumentalCached() []float64 { return passiveV }

// Epoch is constant: v never changes.
func (s *Passive) Epoch() uint64 { return 0 }

// Commit folds one labelled draw into the estimate with its weight.
func (s *Passive) Commit(d core.Draw, label bool) {
	s.est.Add(d.Weight, label, s.pool.Preds[d.Pair])
}

// Estimator exposes the estimator for health diagnostics.
func (s *Passive) Estimator() *estimator.Weighted { return s.est }

// InitialF is NaN: Passive makes no score-based initial guess.
func (s *Passive) InitialF() float64 { return math.NaN() }

// StratumStats reports no strata.
func (s *Passive) StratumStats(draws []int64, sumW, sumW2 []float64) ([]int64, []float64, []float64) {
	return nil, nil, nil
}

// RebuildStats reports no rebuilds: v is fixed.
func (s *Passive) RebuildStats() (uint64, int64) { return 0, 0 }

// TimeRebuilds is a no-op: there is nothing to rebuild.
func (s *Passive) TimeRebuilds(bool) {}

// State captures the estimator sums and the random stream; the OASIS-only
// fields of core.State stay empty.
func (s *Passive) State() *core.State {
	num, pred, tru := s.est.Sums()
	sumW, sumW2, yy, yz, zz := s.est.Moments()
	return &core.State{
		Estimator: core.EstimatorState{
			Num: num, Pred: pred, True: tru, N: s.est.N(),
			SumW: sumW, SumW2: sumW2, YY: yy, YZ: yz, ZZ: zz,
		},
		RNG: s.rng.State(),
	}
}

// Restore overwrites the estimator sums and the random stream from a State
// taken on a Passive sampler. A state carrying strata (an OASIS snapshot)
// is refused and leaves the sampler untouched.
func (s *Passive) Restore(st *core.State) error {
	if len(st.Prior0)+len(st.Prior1)+len(st.Count0)+len(st.Count1)+len(st.LabelsSeen)+
		len(st.PiInit)+len(st.StratSumW)+len(st.StratSumW2) != 0 {
		return errors.New("sampler: passive state carries strata")
	}
	if err := s.rng.Restore(st.RNG); err != nil {
		return err
	}
	e := st.Estimator
	s.est.SetSums(e.Num, e.Pred, e.True, e.N)
	s.est.SetMoments(e.SumW, e.SumW2, e.YY, e.YZ, e.ZZ)
	return nil
}

// Stratified is the proportional stratified baseline (§6.2, after Druck &
// McCallum): strata are drawn with probability ω_k = |P_k|/N, pairs uniformly
// within the stratum, and F is estimated with the stratified estimator. The
// sampling is *not* biased toward informative strata — which is the paper's
// explanation for its weak performance.
type Stratified struct {
	pool    *pool.Pool
	items   [][]int
	draw    *rng.Cumulative
	est     *estimator.Stratified
	rng     *rng.RNG
	weights []float64
}

// NewStratified builds the stratified baseline from a stratification of p.
func NewStratified(p *pool.Pool, weights []float64, lambda []float64, items [][]int, alpha float64, r *rng.RNG) (*Stratified, error) {
	draw, err := rng.NewCumulative(weights)
	if err != nil {
		return nil, err
	}
	return &Stratified{
		pool:    p,
		items:   items,
		draw:    draw,
		est:     estimator.NewStratified(alpha, weights, lambda),
		rng:     r,
		weights: weights,
	}, nil
}

// Name identifies the method in reports.
func (s *Stratified) Name() string { return "Stratified" }

// Step draws a stratum proportionally, a pair uniformly within it, labels it
// and updates the stratified estimate.
func (s *Stratified) Step(b *oracle.Budgeted) error {
	k := s.draw.Draw(s.rng)
	members := s.items[k]
	i := members[s.rng.Intn(len(members))]
	label, err := b.TryLabel(i)
	if err != nil {
		return err
	}
	s.est.Add(k, label, s.pool.Preds[i])
	return nil
}

// Estimate returns the current stratified F̂.
func (s *Stratified) Estimate() float64 { return s.est.Estimate() }
