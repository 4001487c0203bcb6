// Package diag records per-session convergence diagnostics for the OASIS
// sampler: a bounded time-series of estimator state (estimate, asymptotic
// variance, ESS ratio) sampled on every commit batch, per-stratum weight
// health, and a degeneracy alarm state machine.
//
// The paper's whole claim is *asymptotic* optimality of the AIS estimate
// (Marchant & Rubinstein, VLDB 2017, Thm. 1); a point-in-time gauge cannot
// show whether a session is converging, oscillating, or degenerating the
// way sequential importance samplers do on the Bezáková et al. negative
// examples. The series here records the trajectory, the tracker turns it
// into an ok/degraded/degenerate health state with configurable ESS-ratio
// and variance-growth thresholds, and everything snapshots byte-for-byte so
// trajectories survive restarts and WAL replay.
//
// Downsampling is deterministic, not reservoir-based: a series of capacity
// C accepts a commit-batch point iff its sequence number is a multiple of
// the current stride; when the buffer fills, the stride doubles and the
// buffer compacts in place to the points on the new grid (exactly half).
// The retained set is therefore a pure function of the commit stream —
// replaying the same commits yields a bit-identical series — and the series
// at capacity C is a subsequence of the series at capacity 2C, because
// strides are powers of two. Memory stays O(C) for any label budget, and
// the hot path is allocation-free after construction: a rejected point is
// one modulus, an accepted one writes into the preallocated ring.
package diag

import (
	"encoding/json"
	"fmt"
	"math"
	"unsafe"

	"oasis/internal/estimator"
)

// DefaultCapacity is the series ring capacity used when none is configured:
// 512 points ≈ 24 KiB per session, enough for a dense estimate±CI sparkline
// at any zoom the dashboard renders.
const DefaultCapacity = 512

// MinCapacity bounds configured capacities from below; halving needs an
// even, non-trivial ring.
const MinCapacity = 8

// Float is a float64 whose JSON form is null for NaN and ±Inf (which
// encoding/json rejects outright). Estimates are NaN while undefined and
// the asymptotic variance is NaN until the weight moments exist, so every
// float that crosses the snapshot or HTTP boundary uses this type. The
// null↔NaN mapping round-trips, keeping snapshot encodes byte-stable.
type Float float64

// MarshalJSON encodes NaN and ±Inf as null, other values as plain numbers.
func (f Float) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON decodes null as NaN, inverting MarshalJSON.
func (f *Float) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*f = Float(math.NaN())
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = Float(v)
	return nil
}

// Point is one sample of estimator state, recorded after a commit batch.
type Point struct {
	// Seq is the commit-batch sequence number (0-based) the point was
	// recorded at; the downsampling grid runs over this axis.
	Seq uint64 `json:"seq"`
	// Labels is the session's distinct committed label count at record
	// time — the natural x-axis for convergence plots, monotone by
	// construction.
	Labels int `json:"labels"`
	// WallNanos is the wall-clock record time in Unix nanoseconds; zero
	// when unknown (points re-recorded during a WAL tail replay from a
	// journal written before events carried timestamps).
	WallNanos int64 `json:"wall,omitempty"`
	// Estimate is the F-measure estimate (NaN while undefined).
	Estimate Float `json:"estimate"`
	// Variance is the delta-method asymptotic variance term σ̂²;
	// Var(F̂) ≈ σ̂²/Terms. NaN while unavailable.
	Variance Float `json:"variance"`
	// ESSRatio is ESS over estimator terms ∈ (0,1]; NaN before any terms.
	ESSRatio Float `json:"essRatio"`
	// Terms is the number of weighted terms folded into the estimator.
	Terms int `json:"terms"`
}

// pointBytes is the in-memory footprint of one ring slot.
var pointBytes = int(unsafe.Sizeof(Point{}))

// Series is the fixed-capacity downsampling ring. Not safe for concurrent
// use; the owning session guards it with its own mutex.
type Series struct {
	capacity int
	stride   uint64
	next     uint64 // sequence number the next Record call gets
	pts      []Point
}

// NewSeries returns an empty series with the given ring capacity, clamped
// to [MinCapacity, ∞) and rounded up to even so compaction halves exactly.
// capacity <= 0 selects DefaultCapacity.
func NewSeries(capacity int) *Series {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if capacity < MinCapacity {
		capacity = MinCapacity
	}
	if capacity%2 != 0 {
		capacity++
	}
	return &Series{capacity: capacity, stride: 1, pts: make([]Point, 0, capacity)}
}

// Record offers one point to the series. The point's Seq is assigned here
// (callers leave it zero): points off the current stride grid are counted
// and discarded; points on it enter the ring, compacting it onto a grid of
// twice the stride when full.
func (s *Series) Record(p Point) {
	seq := s.next
	s.next++
	if seq%s.stride != 0 {
		return
	}
	p.Seq = seq
	s.pts = append(s.pts, p)
	if len(s.pts) >= s.capacity {
		s.compact()
	}
}

// compact doubles the stride and keeps, in place, exactly the points on the
// new grid. Every resident point sits on the old grid and the old stride
// divides the new one, so this retains precisely every other point.
func (s *Series) compact() {
	s.stride *= 2
	kept := s.pts[:0]
	for _, p := range s.pts {
		if p.Seq%s.stride == 0 {
			kept = append(kept, p)
		}
	}
	s.pts = kept
}

// Len returns the number of resident points.
func (s *Series) Len() int { return len(s.pts) }

// Stride returns the current downsampling stride (a power of two).
func (s *Series) Stride() uint64 { return s.stride }

// Seen returns how many points have been offered to the series.
func (s *Series) Seen() uint64 { return s.next }

// Points returns a copy of the resident points in recording order.
func (s *Series) Points() []Point {
	return append([]Point(nil), s.pts...)
}

// At returns the i-th resident point (0 = oldest).
func (s *Series) At(i int) Point { return s.pts[i] }

// Last returns the most recent resident point, if any.
func (s *Series) Last() (Point, bool) {
	if len(s.pts) == 0 {
		return Point{}, false
	}
	return s.pts[len(s.pts)-1], true
}

// MemBytes returns the fixed memory footprint of the ring.
func (s *Series) MemBytes() int {
	return cap(s.pts) * pointBytes
}

// SeriesState is the snapshot form of a Series.
type SeriesState struct {
	Capacity int     `json:"capacity"`
	Stride   uint64  `json:"stride"`
	Next     uint64  `json:"next"`
	Points   []Point `json:"points,omitempty"`
}

// State captures the series for a snapshot.
func (s *Series) State() SeriesState {
	return SeriesState{Capacity: s.capacity, Stride: s.stride, Next: s.next, Points: s.Points()}
}

// RestoreSeries rebuilds a series from a snapshot, validating the
// downsampling invariants so a corrupt snapshot fails loudly instead of
// producing a ring that misbehaves forever after.
func RestoreSeries(st SeriesState) (*Series, error) {
	if st.Capacity < MinCapacity || st.Capacity%2 != 0 {
		return nil, fmt.Errorf("diag: snapshot capacity %d invalid", st.Capacity)
	}
	if st.Stride == 0 || st.Stride&(st.Stride-1) != 0 {
		return nil, fmt.Errorf("diag: snapshot stride %d not a power of two", st.Stride)
	}
	if len(st.Points) >= st.Capacity {
		return nil, fmt.Errorf("diag: snapshot holds %d points, capacity %d", len(st.Points), st.Capacity)
	}
	s := &Series{capacity: st.Capacity, stride: st.Stride, next: st.Next, pts: make([]Point, 0, st.Capacity)}
	var lastSeq uint64
	for i, p := range st.Points {
		if p.Seq%st.Stride != 0 {
			return nil, fmt.Errorf("diag: snapshot point seq %d off stride %d", p.Seq, st.Stride)
		}
		if i > 0 && p.Seq <= lastSeq {
			return nil, fmt.Errorf("diag: snapshot seq %d not increasing", p.Seq)
		}
		if p.Seq >= st.Next {
			return nil, fmt.Errorf("diag: snapshot seq %d beyond next %d", p.Seq, st.Next)
		}
		lastSeq = p.Seq
		s.pts = append(s.pts, p)
	}
	return s, nil
}

// HealthState is the degeneracy alarm state of a session.
type HealthState int

const (
	// StateOK: the weight diagnostics are within thresholds (or the
	// session is still inside its warm-up label count).
	StateOK HealthState = iota
	// StateDegraded: the ESS ratio dropped below the degraded threshold,
	// or the asymptotic variance is growing where convergence should be
	// shrinking it — the estimate still moves, but its nominal sample
	// count overstates the information collected.
	StateDegraded
	// StateDegenerate: the ESS ratio collapsed below the degenerate
	// threshold — a few huge weights dominate, the SIS failure mode; the
	// trajectory is no longer trustworthy.
	StateDegenerate
)

// String returns the metric/log label for the state.
func (h HealthState) String() string {
	switch h {
	case StateOK:
		return "ok"
	case StateDegraded:
		return "degraded"
	case StateDegenerate:
		return "degenerate"
	default:
		return fmt.Sprintf("state(%d)", int(h))
	}
}

// Thresholds configures the degeneracy alarms. Zero values select the
// defaults; a negative ESS threshold disables that alarm.
type Thresholds struct {
	// ESSDegraded flips the state to degraded when the ESS ratio drops
	// below it. Default 0.3.
	ESSDegraded float64 `json:"essDegraded"`
	// ESSDegenerate flips the state to degenerate below it. Default 0.05.
	ESSDegenerate float64 `json:"essDegenerate"`
	// VarGrowth flips to degraded when the asymptotic variance exceeds
	// VarGrowth times its value a VarWindow of retained points earlier —
	// under convergence σ̂² stabilises, so sustained growth means the
	// weights are misbehaving even while the ESS ratio looks acceptable.
	// Default 4; values <= 1 disable the alarm.
	VarGrowth float64 `json:"varGrowth"`
	// VarWindow is how many retained points back the variance-growth
	// comparison reaches. Default 16.
	VarWindow int `json:"varWindow"`
	// MinLabels suppresses all alarms until this many labels committed;
	// early-session ESS ratios are noise. Default 50.
	MinLabels int `json:"minLabels"`
	// Hysteresis is the factor a recovering session must clear a
	// threshold by before the alarm steps back down — without it a session
	// hovering at a threshold flaps (and logs) on every batch. Leaving
	// degraded requires ESSRatio >= ESSDegraded*Hysteresis and a variance
	// growth of at most VarGrowth/Hysteresis; leaving degenerate requires
	// ESSRatio >= ESSDegenerate*Hysteresis. Default 1.2; values < 1 are
	// treated as 1 (no hysteresis).
	Hysteresis float64 `json:"hysteresis"`
}

// DefaultThresholds are the alarm defaults described on Thresholds.
var DefaultThresholds = Thresholds{
	ESSDegraded:   0.3,
	ESSDegenerate: 0.05,
	VarGrowth:     4,
	VarWindow:     16,
	MinLabels:     50,
	Hysteresis:    1.2,
}

// WithDefaults fills zero fields from DefaultThresholds.
func (t Thresholds) WithDefaults() Thresholds {
	d := DefaultThresholds
	if t.ESSDegraded == 0 {
		t.ESSDegraded = d.ESSDegraded
	}
	if t.ESSDegenerate == 0 {
		t.ESSDegenerate = d.ESSDegenerate
	}
	if t.VarGrowth == 0 {
		t.VarGrowth = d.VarGrowth
	}
	if t.VarWindow <= 0 {
		t.VarWindow = d.VarWindow
	}
	if t.MinLabels <= 0 {
		t.MinLabels = d.MinLabels
	}
	if t.Hysteresis == 0 {
		t.Hysteresis = d.Hysteresis
	}
	if t.Hysteresis < 1 {
		t.Hysteresis = 1
	}
	return t
}

// Tracker owns one session's series and alarm state. Like Series it is not
// concurrency-safe; the session's mutex guards it.
type Tracker struct {
	series *Series
	th     Thresholds
	state  HealthState
}

// NewTracker builds a tracker with the given ring capacity (<= 0 selects
// DefaultCapacity) and thresholds (zero fields take defaults).
func NewTracker(capacity int, th Thresholds) *Tracker {
	return &Tracker{series: NewSeries(capacity), th: th.WithDefaults()}
}

// Record folds one commit-batch point into the series and re-evaluates the
// alarm state. It returns the state after the point and whether this point
// changed it (transitions fire in both directions: a session whose ESS
// ratio recovers walks back to ok).
func (t *Tracker) Record(p Point) (state HealthState, changed bool) {
	t.series.Record(p)
	next := t.evaluate(p)
	changed = next != t.state
	t.state = next
	return next, changed
}

// evaluate derives the alarm state from the newest point and the retained
// series. It uses only data that snapshots carry, so a restored tracker
// resumes deterministically.
func (t *Tracker) evaluate(p Point) HealthState {
	if p.Labels < t.th.MinLabels {
		return StateOK
	}
	essR := float64(p.ESSRatio)
	if !math.IsNaN(essR) {
		// Raising the bar for leaving a bad state (hysteresis) keeps a
		// session hovering at a threshold from flapping on every batch.
		degen, deg := t.th.ESSDegenerate, t.th.ESSDegraded
		if t.state == StateDegenerate {
			degen *= t.th.Hysteresis
		}
		if t.state >= StateDegraded {
			deg *= t.th.Hysteresis
		}
		if t.th.ESSDegenerate > 0 && essR < degen {
			return StateDegenerate
		}
		if t.th.ESSDegraded > 0 && essR < deg {
			return StateDegraded
		}
	}
	if t.th.VarGrowth > 1 {
		if n := t.series.Len(); n > t.th.VarWindow {
			prev := float64(t.series.At(n - 1 - t.th.VarWindow).Variance)
			cur := float64(p.Variance)
			// The same hysteresis: a degraded session stays degraded until
			// the growth falls to VarGrowth/Hysteresis.
			limit := t.th.VarGrowth * prev
			if t.state >= StateDegraded {
				limit /= t.th.Hysteresis
			}
			if !math.IsNaN(prev) && !math.IsNaN(cur) && prev > 0 && cur > limit {
				return StateDegraded
			}
		}
	}
	return StateOK
}

// State returns the current alarm state.
func (t *Tracker) State() HealthState { return t.state }

// Thresholds returns the effective (default-filled) thresholds.
func (t *Tracker) Thresholds() Thresholds { return t.th }

// Series returns the underlying series (owned by the tracker; callers must
// hold the session's lock).
func (t *Tracker) Series() *Series { return t.series }

// MemBytes returns the tracker's fixed memory footprint.
func (t *Tracker) MemBytes() int { return t.series.MemBytes() }

// TrackerState is the snapshot form of a Tracker. The alarm state rides
// along so a restore does not re-fire transition logs.
type TrackerState struct {
	Series SeriesState `json:"series"`
	State  int         `json:"state"`
}

// State captures the tracker for a snapshot.
func (t *Tracker) Snapshot() *TrackerState {
	return &TrackerState{Series: t.series.State(), State: int(t.state)}
}

// RestoreTracker rebuilds a tracker from a snapshot under the given
// thresholds (thresholds are configuration, not state: a restart with new
// flags re-evaluates old trajectories under the new rules).
func RestoreTracker(st *TrackerState, th Thresholds) (*Tracker, error) {
	s, err := RestoreSeries(st.Series)
	if err != nil {
		return nil, err
	}
	if st.State < int(StateOK) || st.State > int(StateDegenerate) {
		return nil, fmt.Errorf("diag: snapshot health state %d invalid", st.State)
	}
	return &Tracker{series: s, th: th.WithDefaults(), state: HealthState(st.State)}, nil
}

// StratumHealth is the per-stratum weight diagnostic row: how much
// importance-weight mass a stratum contributed, its local effective sample
// size, and how its realised draw share compares to the instrumental
// allocation the sampler is converging toward.
type StratumHealth struct {
	Stratum int   `json:"stratum"`
	Draws   int64 `json:"draws"`
	// SumW and SumW2 are the stratum's Σw and Σw² over labelled commits.
	SumW  Float `json:"sumW"`
	SumW2 Float `json:"sumW2"`
	// ESS is the stratum-local effective sample size (Σw)²/Σw².
	ESS Float `json:"ess"`
	// WeightShare is the stratum's share of total Σw.
	WeightShare Float `json:"weightShare"`
	// DrawShare is the stratum's share of labelled draws.
	DrawShare Float `json:"drawShare"`
	// Instrumental is the cached instrumental probability v_k the sampler
	// currently allocates to the stratum.
	Instrumental Float `json:"instrumental"`
	// Skew is DrawShare/Instrumental: 1 when sampling matches the current
	// optimal allocation, far from 1 where the realised draws lag the
	// adaptive target (early adaptation, or ε-greedy flooring).
	Skew Float `json:"skew"`
}

// StrataHealth assembles the per-stratum rows from parallel arrays of
// draw counts and weight moments plus the cached instrumental
// distribution (nil when unavailable; the rows then carry NaN there).
func StrataHealth(draws []int64, sumW, sumW2, instrumental []float64) []StratumHealth {
	var totalDraws int64
	totalW := 0.0
	for k := range draws {
		totalDraws += draws[k]
		totalW += sumW[k]
	}
	rows := make([]StratumHealth, len(draws))
	for k := range rows {
		row := StratumHealth{
			Stratum:      k,
			Draws:        draws[k],
			SumW:         Float(sumW[k]),
			SumW2:        Float(sumW2[k]),
			ESS:          Float(estimator.ESSFrom(sumW[k], sumW2[k])),
			WeightShare:  Float(math.NaN()),
			DrawShare:    Float(math.NaN()),
			Instrumental: Float(math.NaN()),
			Skew:         Float(math.NaN()),
		}
		if totalW > 0 {
			row.WeightShare = Float(sumW[k] / totalW)
		}
		if totalDraws > 0 {
			row.DrawShare = Float(float64(draws[k]) / float64(totalDraws))
		}
		if instrumental != nil {
			v := instrumental[k]
			row.Instrumental = Float(v)
			if v > 0 && totalDraws > 0 {
				row.Skew = Float(float64(draws[k]) / float64(totalDraws) / v)
			}
		}
		rows[k] = row
	}
	return rows
}
