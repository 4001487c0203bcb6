package rng

import (
	"errors"
	"math"
)

// ErrBadWeights is returned when a weight vector is empty, contains a
// negative / non-finite entry, or sums to zero.
var ErrBadWeights = errors.New("rng: weights must be non-negative, finite, and sum to a positive value")

// ValidateWeights checks that w is a usable weight vector (non-empty,
// non-negative, finite entries, positive finite sum) and returns its sum —
// the value CategoricalTrusted expects. It is the construction-boundary
// validation for callers that then draw through the trusted fast paths.
func ValidateWeights(w []float64) (float64, error) { return validateWeights(w) }

// validateWeights checks w and returns its sum.
func validateWeights(w []float64) (float64, error) {
	if len(w) == 0 {
		return 0, ErrBadWeights
	}
	sum := 0.0
	for _, x := range w {
		if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return 0, ErrBadWeights
		}
		sum += x
	}
	if sum <= 0 || math.IsInf(sum, 0) {
		return 0, ErrBadWeights
	}
	return sum, nil
}

// Categorical draws one index from the (unnormalised, non-negative) weight
// vector w by a linear inverse-CDF scan: O(len(w)) per draw. This is the
// "naive" sampling mode; the paper's IS baseline uses exactly this over the
// whole pool, which is why it scales linearly in the pool size (Table 3).
func (r *RNG) Categorical(w []float64) (int, error) {
	sum, err := validateWeights(w)
	if err != nil {
		return 0, err
	}
	u := r.Float64() * sum
	acc := 0.0
	for i, x := range w {
		acc += x
		if u < acc {
			return i, nil
		}
	}
	// Floating-point slack: return the last index with positive weight.
	for i := len(w) - 1; i >= 0; i-- {
		if w[i] > 0 {
			return i, nil
		}
	}
	return 0, ErrBadWeights
}

// CategoricalTrusted is Categorical without the per-draw validation scan,
// for sampler-owned weight vectors that were validated (and summed) once at
// a construction boundary: sum must be Σw as validateWeights would compute
// it, so the draw distribution is identical to Categorical's. The scan is
// still O(len(w)) — use a prepared Cumulative or Alias sampler when draws
// dominate rebuilds.
func (r *RNG) CategoricalTrusted(w []float64, sum float64) int {
	u := r.Float64() * sum
	acc := 0.0
	for i, x := range w {
		acc += x
		if u < acc {
			return i
		}
	}
	for i := len(w) - 1; i >= 0; i-- {
		if w[i] > 0 {
			return i
		}
	}
	return 0
}

// Cumulative is a prepared inverse-CDF sampler over a fixed weight vector.
// Preparation is O(n); each draw is O(log n) by binary search. It is used for
// the per-iteration stratum draw in OASIS where n = K is small.
type Cumulative struct {
	cum []float64
	sum float64
}

// NewCumulative prepares an inverse-CDF sampler for weights w.
func NewCumulative(w []float64) (*Cumulative, error) {
	c := &Cumulative{}
	if err := c.Reset(w); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset re-prepares the sampler over new weights in place, reusing the
// cumulative buffer once its capacity suffices (zero allocations at a fixed
// category count). Validation runs here — the construction boundary — which
// keeps Draw validation-free: a Cumulative refreshed with Reset after every
// weight change draws the exact same index sequence as Categorical on the
// same stream (both invert the identically accumulated CDF on one Float64),
// in O(log n) instead of O(n) with a per-draw validation scan.
//
// Each weight is checked inside the prefix-sum pass, under exactly the
// conditions of ValidateWeights, and the running sum is the one
// ValidateWeights returns. On ErrBadWeights the sampler is left empty and
// must be Reset successfully before the next Draw.
func (c *Cumulative) Reset(w []float64) error {
	if cap(c.cum) < len(w) {
		c.cum = make([]float64, len(w))
	}
	c.cum = c.cum[:len(w)]
	acc := 0.0
	for i, x := range w {
		// !(x >= 0) rejects negatives and NaN; +Inf is the only value
		// above MaxFloat64.
		if !(x >= 0) || x > math.MaxFloat64 {
			c.cum, c.sum = c.cum[:0], 0
			return ErrBadWeights
		}
		acc += x
		c.cum[i] = acc
	}
	if !(acc > 0) || acc > math.MaxFloat64 {
		c.cum, c.sum = c.cum[:0], 0
		return ErrBadWeights
	}
	c.sum = acc
	return nil
}

// N returns the number of categories.
func (c *Cumulative) N() int { return len(c.cum) }

// Sum returns the total weight Σw of the prepared distribution.
func (c *Cumulative) Sum() float64 { return c.sum }

// Draw samples one index: the smallest i with cum[i] > u, exactly the index
// Categorical picks from the same variate.
func (c *Cumulative) Draw(r *RNG) int {
	u := r.Float64() * c.sum
	var lo int
	if len(c.cum) <= 64 {
		// Forward scan with early exit: for small category counts (OASIS
		// strata, K ≈ 30) this beats a binary search — the cumulative array
		// sits on one or two cache lines and the scan costs a single
		// misprediction at the boundary, where every level of the binary
		// search is a coin-flip branch.
		lo = len(c.cum) - 1
		for i, x := range c.cum {
			if u < x {
				lo = i
				break
			}
		}
	} else {
		hi := len(c.cum) - 1
		for lo < hi {
			mid := (lo + hi) / 2
			if c.cum[mid] <= u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
	}
	// Floating-point slack: when u lands at or beyond the accumulated total,
	// step down to the last positive-weight category (equal adjacent
	// cumulative values mark zero weights), matching Categorical exactly.
	for lo > 0 && c.cum[lo] == c.cum[lo-1] {
		lo--
	}
	return lo
}

// Alias is a Walker/Vose alias sampler over a fixed discrete distribution.
// Preparation is O(n); each draw is O(1). It is used for the "fast" IS mode
// so that full-scale error-curve sweeps are feasible; the distribution of
// draws is identical to the naive mode.
type Alias struct {
	prob  []float64
	alias []int32
}

// NewAlias prepares an alias sampler for the (unnormalised) weights w.
func NewAlias(w []float64) (*Alias, error) {
	sum, err := validateWeights(w)
	if err != nil {
		return nil, err
	}
	n := len(w)
	a := &Alias{
		prob:  make([]float64, n),
		alias: make([]int32, n),
	}
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, x := range w {
		scaled[i] = x * float64(n) / sum
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] = (scaled[l] + scaled[s]) - 1
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		a.prob[i] = 1
		a.alias[i] = i
	}
	for _, i := range small {
		// Can only happen via floating-point round-off.
		a.prob[i] = 1
		a.alias[i] = i
	}
	return a, nil
}

// N returns the number of categories.
func (a *Alias) N() int { return len(a.prob) }

// Draw samples one index in O(1).
func (a *Alias) Draw(r *RNG) int {
	i := r.Intn(len(a.prob))
	if r.Float64() < a.prob[i] {
		return i
	}
	return int(a.alias[i])
}
