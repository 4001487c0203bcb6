// Package oracle implements the labelling oracle of Definition 4: a
// randomised function returning Boolean labels whose distribution is
// parametrised by per-pair probabilities p(1|z). It also provides the
// caching wrapper that implements the paper's label-budget accounting
// (footnote 5): sampling is with replacement, but a pair charges the budget
// only the first time its label is queried.
package oracle

import (
	"errors"

	"oasis/internal/rng"
)

// Oracle returns a (possibly random) Boolean label for pool item i.
type Oracle interface {
	Label(i int) bool
}

// Deterministic is the paper's experimental regime: a fixed ground-truth
// label per pair, i.e. p(1|z) ∈ {0, 1}.
type Deterministic struct {
	Labels []bool
}

// NewDeterministic wraps fixed labels as an oracle.
func NewDeterministic(labels []bool) *Deterministic {
	return &Deterministic{Labels: labels}
}

// Label returns the fixed label of item i.
func (o *Deterministic) Label(i int) bool { return o.Labels[i] }

// Bernoulli is the general noisy oracle: each query of item i draws an
// independent Bernoulli(p_i) label, matching the randomised-oracle model the
// consistency theory covers.
type Bernoulli struct {
	Probs []float64
	rng   *rng.RNG
}

// NewBernoulli builds a noisy oracle with per-item probabilities and its own
// random stream.
func NewBernoulli(probs []float64, r *rng.RNG) *Bernoulli {
	return &Bernoulli{Probs: probs, rng: r}
}

// Label draws a fresh Bernoulli(p_i) label.
func (o *Bernoulli) Label(i int) bool { return o.rng.Bernoulli(o.Probs[i]) }

// FromProbs returns the natural oracle for a probability vector: a
// Deterministic oracle if every probability is exactly 0 or 1, otherwise a
// Bernoulli oracle using r.
func FromProbs(probs []float64, r *rng.RNG) Oracle {
	if d, ok := DeterministicFromProbs(probs); ok {
		return d
	}
	return NewBernoulli(probs, r)
}

// DeterministicFromProbs returns the Deterministic oracle of a probability
// vector whose every entry is exactly 0 or 1, and false for any other
// vector. The oracle is read-only, so concurrent runs may share one.
func DeterministicFromProbs(probs []float64) (*Deterministic, bool) {
	for _, p := range probs {
		if p != 0 && p != 1 {
			return nil, false
		}
	}
	labels := make([]bool, len(probs))
	for i, p := range probs {
		labels[i] = p == 1
	}
	return NewDeterministic(labels), true
}

// ErrBudgetExhausted is returned by Budgeted.TryLabel when a new (uncached)
// query would exceed the label budget.
var ErrBudgetExhausted = errors.New("oracle: label budget exhausted")

// Budgeted wraps an oracle with first-query caching and budget accounting.
// Repeat queries of the same item return the cached label and consume no
// budget — exactly the paper's accounting, which also keeps the estimators
// consistent under noisy oracles within a run (each pair has one realised
// label per evaluation run, as with a crowd worker answering once).
type Budgeted struct {
	inner   Oracle
	cache   map[int]bool
	queries int
	budget  int
}

// NewBudgeted wraps inner with the given budget. A non-positive budget means
// unlimited.
func NewBudgeted(inner Oracle, budget int) *Budgeted {
	return &Budgeted{inner: inner, cache: make(map[int]bool), budget: budget}
}

// Consumed returns the number of distinct items labelled so far.
func (b *Budgeted) Consumed() int { return len(b.cache) }

// Queries returns the total number of Label calls (including cache hits).
func (b *Budgeted) Queries() int { return b.queries }

// Remaining returns the remaining budget, or -1 when unlimited.
func (b *Budgeted) Remaining() int {
	if b.budget <= 0 {
		return -1
	}
	return b.budget - len(b.cache)
}

// Exhausted reports whether a new uncached query would exceed the budget.
func (b *Budgeted) Exhausted() bool {
	return b.budget > 0 && len(b.cache) >= b.budget
}

// TryLabel returns the label of item i, charging the budget if i is uncached.
// It returns ErrBudgetExhausted when the charge would exceed the budget.
func (b *Budgeted) TryLabel(i int) (bool, error) {
	b.queries++
	if l, ok := b.cache[i]; ok {
		return l, nil
	}
	if b.Exhausted() {
		b.queries--
		return false, ErrBudgetExhausted
	}
	l := b.inner.Label(i)
	b.cache[i] = l
	return l, nil
}

// Label implements Oracle; it panics if the budget is exhausted. Use TryLabel
// in budget-sensitive loops.
func (b *Budgeted) Label(i int) bool {
	l, err := b.TryLabel(i)
	if err != nil {
		panic(err)
	}
	return l
}
