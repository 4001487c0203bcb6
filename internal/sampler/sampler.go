// Package sampler implements the three baseline evaluation methods the paper
// compares OASIS against (§6.2): Passive uniform sampling, proportional
// Stratified sampling (Druck & McCallum), and static Importance Sampling
// (Sawade et al.). All methods — including OASIS in internal/core — satisfy
// the Method interface consumed by the experiment harness.
package sampler

import (
	"oasis/internal/oracle"
)

// Method is one sequential evaluation method. Step draws one record pair
// (with replacement), queries the budgeted oracle and updates the internal
// estimate; it returns oracle.ErrBudgetExhausted when a fresh label would
// exceed the budget. Estimate returns the current F̂ (NaN while undefined).
type Method interface {
	Name() string
	Step(b *oracle.Budgeted) error
	Estimate() float64
}

// Sampling is with replacement and cached (already-labelled) pairs are free,
// so a run can legitimately take more draws than its label budget — e.g.
// once a heavy stratum is fully labelled, every re-draw from it consumes no
// budget. Step loops (oasis.Sampler.Run and the experiment harness) cap the
// draw count so that a degenerate instrumental distribution (all mass on
// labelled pairs) terminates instead of spinning: MaxDrawFactor draws per
// budgeted label, plus MaxDrawSlack to keep tiny budgets from being cut off
// early. Propose/commit needs no cap: its draw path is rejection-free and
// exhaustion is a typed error.
const (
	// MaxDrawFactor bounds with-replacement draws per budgeted label.
	MaxDrawFactor = 200
	// MaxDrawSlack is the additive slack for small budgets.
	MaxDrawSlack = 1000
)

// MaxDraws returns the draw cap of a Step loop targeting n fresh labels:
// MaxDrawFactor*n + MaxDrawSlack.
func MaxDraws(n int) int { return MaxDrawFactor*n + MaxDrawSlack }
