package diag

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"oasis/internal/estimator"
)

// feed pushes n synthetic commit-batch points into s with deterministic
// content derived from the index, so two series fed the same stream must
// be comparable field by field.
func feed(s *Series, n int) {
	for i := 0; i < n; i++ {
		s.Record(syntheticPoint(i))
	}
}

func syntheticPoint(i int) Point {
	return Point{
		Labels:    i + 1,
		WallNanos: int64(1000 + i),
		Estimate:  Float(float64(i) / 1000),
		Variance:  Float(1 / float64(i+1)),
		ESSRatio:  Float(0.9),
		Terms:     i + 1,
	}
}

// referenceSeries is the unoptimized oracle for the downsampling rule:
// simulate the stride doubling over the full stream and return the seqs
// that must remain.
func referenceSeries(n, capacity int) []uint64 {
	stride := uint64(1)
	var kept []uint64
	for seq := uint64(0); seq < uint64(n); seq++ {
		if seq%stride != 0 {
			continue
		}
		kept = append(kept, seq)
		if len(kept) >= capacity {
			stride *= 2
			next := kept[:0]
			for _, s := range kept {
				if s%stride == 0 {
					next = append(next, s)
				}
			}
			kept = next
		}
	}
	return kept
}

func TestDownsamplingGolden(t *testing.T) {
	for _, n := range []int{0, 1, 7, 16, 17, 100, 1000, 12345} {
		for _, capacity := range []int{8, 16, 64, 512} {
			s := NewSeries(capacity)
			feed(s, n)
			want := referenceSeries(n, capacity)
			got := s.Points()
			if len(got) != len(want) {
				t.Fatalf("n=%d cap=%d: %d points, want %d", n, capacity, len(got), len(want))
			}
			for i, p := range got {
				if p.Seq != want[i] {
					t.Fatalf("n=%d cap=%d point %d: seq %d, want %d", n, capacity, i, p.Seq, want[i])
				}
				if exp := syntheticPoint(int(want[i])); p.Labels != exp.Labels || p.Terms != exp.Terms ||
					p.WallNanos != exp.WallNanos || p.Estimate != exp.Estimate {
					t.Fatalf("n=%d cap=%d point %d: payload does not match seq %d", n, capacity, i, want[i])
				}
			}
			if s.Seen() != uint64(n) {
				t.Fatalf("seen %d, want %d", s.Seen(), n)
			}
		}
	}
}

// Bit-identical: the retained series is a pure function of the commit
// stream, so two independent series fed the same stream agree exactly.
func TestDownsamplingDeterministic(t *testing.T) {
	a, b := NewSeries(32), NewSeries(32)
	feed(a, 5000)
	feed(b, 5000)
	if !reflect.DeepEqual(a.Points(), b.Points()) {
		t.Fatal("same commit stream produced different series")
	}
}

// Strides are powers of two, so the series at capacity C must be a
// subsequence of the series at capacity 2C over the same stream.
func TestCapacitySubsequence(t *testing.T) {
	small, big := NewSeries(16), NewSeries(32)
	feed(small, 3000)
	feed(big, 3000)
	bySeq := map[uint64]Point{}
	for _, p := range big.Points() {
		bySeq[p.Seq] = p
	}
	for _, p := range small.Points() {
		bp, ok := bySeq[p.Seq]
		if !ok {
			t.Fatalf("seq %d in capacity-16 series missing from capacity-32 series", p.Seq)
		}
		if bp != p {
			t.Fatalf("seq %d differs between capacities: %+v vs %+v", p.Seq, p, bp)
		}
	}
}

func TestSeriesBoundedAndMonotone(t *testing.T) {
	s := NewSeries(16)
	feed(s, 100000)
	if s.Len() >= 16 {
		t.Fatalf("series grew to %d, capacity 16", s.Len())
	}
	if s.MemBytes() != 16*pointBytes {
		t.Fatalf("mem %d, want %d", s.MemBytes(), 16*pointBytes)
	}
	pts := s.Points()
	for i := 1; i < len(pts); i++ {
		if pts[i].Seq <= pts[i-1].Seq || pts[i].Labels <= pts[i-1].Labels {
			t.Fatalf("series not monotone at %d: %+v then %+v", i, pts[i-1], pts[i])
		}
	}
}

func TestSeriesSnapshotRoundTrip(t *testing.T) {
	s := NewSeries(16)
	feed(s, 777)
	b1, err := json.Marshal(s.State())
	if err != nil {
		t.Fatal(err)
	}
	var st SeriesState
	if err := json.Unmarshal(b1, &st); err != nil {
		t.Fatal(err)
	}
	r, err := RestoreSeries(st)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(r.State())
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatalf("snapshot not byte-stable:\n%s\n%s", b1, b2)
	}
	// The restored series must continue exactly like the original.
	for i := 777; i < 3000; i++ {
		p := syntheticPoint(i)
		s.Record(p)
		r.Record(p)
	}
	if !reflect.DeepEqual(s.Points(), r.Points()) {
		t.Fatal("restored series diverged from original after more commits")
	}
}

func TestRestoreSeriesValidation(t *testing.T) {
	good := func() SeriesState {
		s := NewSeries(16)
		feed(s, 100)
		return s.State()
	}
	cases := map[string]func(*SeriesState){
		"odd capacity":    func(st *SeriesState) { st.Capacity = 15 },
		"tiny capacity":   func(st *SeriesState) { st.Capacity = 2 },
		"non-pow2 stride": func(st *SeriesState) { st.Stride = 3 },
		"zero stride":     func(st *SeriesState) { st.Stride = 0 },
		"off-grid seq":    func(st *SeriesState) { st.Points[1].Seq++ },
		"non-increasing":  func(st *SeriesState) { st.Points[1].Seq = st.Points[0].Seq },
		"seq beyond next": func(st *SeriesState) { st.Points[len(st.Points)-1].Seq = st.Next + st.Stride*8 },
		"overfull":        func(st *SeriesState) { st.Capacity = MinCapacity },
	}
	for name, corrupt := range cases {
		st := good()
		corrupt(&st)
		if _, err := RestoreSeries(st); err == nil {
			t.Errorf("%s: restore accepted a corrupt snapshot", name)
		}
	}
	if _, err := RestoreSeries(good()); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
}

func TestFloatJSONRoundTrip(t *testing.T) {
	in := []Float{Float(math.NaN()), Float(math.Inf(1)), Float(math.Inf(-1)), 0.25, 0}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "[null,null,null,0.25,0]" {
		t.Fatalf("unexpected encoding %s", b)
	}
	var out []Float
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(float64(out[0])) || !math.IsNaN(float64(out[1])) || out[3] != 0.25 {
		t.Fatalf("round trip mangled values: %v", out)
	}
}

func trackerPoint(labels int, essRatio, variance float64) Point {
	return Point{Labels: labels, ESSRatio: Float(essRatio), Variance: Float(variance), Terms: labels}
}

func TestTrackerESSTransitions(t *testing.T) {
	tr := NewTracker(64, Thresholds{ESSDegraded: 0.5, ESSDegenerate: 0.1, MinLabels: 10, VarGrowth: -1})
	// Warm-up: even a collapsed ratio stays ok below MinLabels.
	if st, changed := tr.Record(trackerPoint(5, 0.01, 1)); st != StateOK || changed {
		t.Fatalf("warm-up: got %v changed=%v", st, changed)
	}
	st, changed := tr.Record(trackerPoint(20, 0.4, 1))
	if st != StateDegraded || !changed {
		t.Fatalf("degraded: got %v changed=%v", st, changed)
	}
	st, changed = tr.Record(trackerPoint(21, 0.4, 1))
	if st != StateDegraded || changed {
		t.Fatalf("repeat degraded must not re-fire: got %v changed=%v", st, changed)
	}
	st, changed = tr.Record(trackerPoint(30, 0.05, 1))
	if st != StateDegenerate || !changed {
		t.Fatalf("degenerate: got %v changed=%v", st, changed)
	}
	st, changed = tr.Record(trackerPoint(40, 0.9, 1))
	if st != StateOK || !changed {
		t.Fatalf("recovery: got %v changed=%v", st, changed)
	}
	// NaN ratio (no terms yet) must not alarm.
	if st, _ := tr.Record(trackerPoint(50, math.NaN(), 1)); st != StateOK {
		t.Fatalf("NaN ratio alarmed: %v", st)
	}
}

func TestTrackerVarianceGrowth(t *testing.T) {
	th := Thresholds{ESSDegraded: -1, ESSDegenerate: -1, VarGrowth: 2, VarWindow: 4, MinLabels: 1}
	tr := NewTracker(64, th)
	for i := 0; i < 10; i++ {
		if st, _ := tr.Record(trackerPoint(i+1, 0.9, 1.0)); st != StateOK {
			t.Fatalf("flat variance alarmed at %d", i)
		}
	}
	// Variance jumps 3x over the window: degraded.
	st, changed := tr.Record(trackerPoint(11, 0.9, 3.0))
	if st != StateDegraded || !changed {
		t.Fatalf("variance growth: got %v changed=%v", st, changed)
	}
}

// TestTrackerVarianceGrowthHysteresis: a variance whose growth over the
// window oscillates just around VarGrowth must raise the alarm once and
// hold it, not flap on every point; it clears once the growth falls below
// VarGrowth/Hysteresis.
func TestTrackerVarianceGrowthHysteresis(t *testing.T) {
	const window = 3 // odd, so the ratio alternates above and below 4
	th := Thresholds{ESSDegraded: -1, ESSDegenerate: -1, VarGrowth: 4, VarWindow: window, MinLabels: 1, Hysteresis: 1.2}
	tr := NewTracker(1024, th)
	step := math.Pow(4, 1.0/window) // growth of exactly 4x per window
	transitions := 0
	v := 1.0
	for i := 0; i < 200; i++ {
		wobble := 1.02
		if i%2 == 1 {
			wobble = 0.98
		}
		if _, changed := tr.Record(trackerPoint(i+1, 0.9, v*wobble)); changed {
			transitions++
		}
		v *= step
	}
	if transitions != 1 || tr.State() != StateDegraded {
		t.Fatalf("oscillating growth: %d transitions, final state %v; want 1 and degraded", transitions, tr.State())
	}
	// Growth of 3.6x per window is below VarGrowth but not below
	// VarGrowth/Hysteresis (3.33x): still degraded.
	w := v
	for i := 0; i < 2*window; i++ {
		w *= math.Pow(3.6, 1.0/window)
		tr.Record(trackerPoint(201+i, 0.9, w))
	}
	if tr.State() != StateDegraded {
		t.Fatalf("growth of 3.6x left the alarm: %v", tr.State())
	}
	// A flat variance clears it.
	for i := 0; i < 2*window; i++ {
		tr.Record(trackerPoint(301+i, 0.9, w))
	}
	if tr.State() != StateOK {
		t.Fatalf("flat variance kept the alarm: %v", tr.State())
	}
}

func TestTrackerSnapshotRoundTrip(t *testing.T) {
	tr := NewTracker(16, Thresholds{ESSDegraded: 0.5, MinLabels: 1})
	for i := 0; i < 200; i++ {
		tr.Record(trackerPoint(i+1, 0.4, 1))
	}
	if tr.State() != StateDegraded {
		t.Fatalf("setup: state %v", tr.State())
	}
	b, err := json.Marshal(tr.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var st TrackerState
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	r, err := RestoreTracker(&st, Thresholds{ESSDegraded: 0.5, MinLabels: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.State() != StateDegraded {
		t.Fatalf("restored state %v, want degraded", r.State())
	}
	if !reflect.DeepEqual(r.Series().Points(), tr.Series().Points()) {
		t.Fatal("restored series differs")
	}
	bad := st
	bad.State = 99
	if _, err := RestoreTracker(&bad, Thresholds{}); err == nil {
		t.Fatal("invalid health state accepted")
	}
}

func TestThresholdDefaults(t *testing.T) {
	th := Thresholds{}.WithDefaults()
	if th != DefaultThresholds {
		t.Fatalf("zero thresholds did not take defaults: %+v", th)
	}
	custom := Thresholds{ESSDegraded: 0.7, MinLabels: 3}.WithDefaults()
	if custom.ESSDegraded != 0.7 || custom.MinLabels != 3 || custom.ESSDegenerate != DefaultThresholds.ESSDegenerate {
		t.Fatalf("partial thresholds merged wrong: %+v", custom)
	}
}

func TestHealthStateString(t *testing.T) {
	if StateOK.String() != "ok" || StateDegraded.String() != "degraded" || StateDegenerate.String() != "degenerate" {
		t.Fatal("state names changed; metrics and logs depend on them")
	}
}

// ESS edge cases: zero labels, a single stratum holding all mass, and
// all-zero weights must yield finite rows (ESS 0, NaN shares where the
// denominators vanish), never ±Inf.
func TestStrataHealthEdgeCases(t *testing.T) {
	// Zero labels anywhere.
	rows := StrataHealth([]int64{0, 0}, []float64{0, 0}, []float64{0, 0}, []float64{0.5, 0.5})
	for _, r := range rows {
		if float64(r.ESS) != 0 {
			t.Fatalf("zero-label stratum ESS %v, want 0", r.ESS)
		}
		if !math.IsNaN(float64(r.WeightShare)) || !math.IsNaN(float64(r.DrawShare)) || !math.IsNaN(float64(r.Skew)) {
			t.Fatalf("zero-label shares should be NaN: %+v", r)
		}
	}

	// Single stratum: ESS equals draws for unit weights, shares are 1.
	rows = StrataHealth([]int64{4}, []float64{4}, []float64{4}, []float64{1})
	if got := float64(rows[0].ESS); got != 4 {
		t.Fatalf("single-stratum ESS %v, want 4", got)
	}
	if float64(rows[0].WeightShare) != 1 || float64(rows[0].DrawShare) != 1 || float64(rows[0].Skew) != 1 {
		t.Fatalf("single-stratum shares: %+v", rows[0])
	}

	// All-zero weights with draws present (degenerate instrumental): ESS 0,
	// weight shares NaN, draw share still defined.
	rows = StrataHealth([]int64{3, 1}, []float64{0, 0}, []float64{0, 0}, []float64{0.9, 0.1})
	if float64(rows[0].ESS) != 0 || float64(rows[1].ESS) != 0 {
		t.Fatalf("all-zero-weight ESS: %+v", rows)
	}
	if got := float64(rows[0].DrawShare); got != 0.75 {
		t.Fatalf("draw share %v, want 0.75", got)
	}
	// Zero instrumental probability must not divide: skew NaN.
	rows = StrataHealth([]int64{3, 1}, []float64{1, 1}, []float64{1, 1}, []float64{1, 0})
	if !math.IsNaN(float64(rows[1].Skew)) {
		t.Fatalf("zero-instrumental skew should be NaN: %+v", rows[1])
	}
	// Nil instrumental (passive / unavailable): instrumental columns NaN.
	rows = StrataHealth([]int64{1}, []float64{1}, []float64{1}, nil)
	if !math.IsNaN(float64(rows[0].Instrumental)) || !math.IsNaN(float64(rows[0].Skew)) {
		t.Fatalf("nil instrumental: %+v", rows[0])
	}
}

func TestESSFromEdgeCases(t *testing.T) {
	if got := estimator.ESSFrom(0, 0); got != 0 {
		t.Fatalf("ESSFrom(0,0)=%v", got)
	}
	if got := estimator.ESSFrom(5, 0); got != 0 {
		t.Fatalf("ESSFrom(5,0)=%v", got)
	}
	if got := estimator.ESSFrom(4, 4); got != 4 {
		t.Fatalf("ESSFrom(4,4)=%v", got)
	}
	if got := estimator.ESSFrom(3, -1); got != 0 {
		t.Fatalf("negative sumW2 must clamp to 0, got %v", got)
	}
}
