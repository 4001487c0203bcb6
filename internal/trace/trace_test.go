package trace

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

const (
	validTP  = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	validTID = "0af7651916cd43dd8448eb211c80319c"
	validSID = "b7ad6b7169203331"
)

func TestParseTraceparentValid(t *testing.T) {
	tid, sid, flags, err := ParseTraceparent(validTP)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", validTP, err)
	}
	if tid.String() != validTID {
		t.Errorf("trace-id = %s, want %s", tid, validTID)
	}
	if sid.String() != validSID {
		t.Errorf("parent-id = %s, want %s", sid, validSID)
	}
	if flags != FlagSampled {
		t.Errorf("flags = %02x, want 01", flags)
	}
}

func TestParseTraceparentRoundTrip(t *testing.T) {
	tid := MakeTraceID(0xdeadbeefcafef00d, 42)
	sid := MakeSpanID(0xdeadbeefcafef00d, 42)
	h := Traceparent(tid, sid, FlagSampled)
	tid2, sid2, flags, err := ParseTraceparent(h)
	if err != nil {
		t.Fatalf("round trip parse of %q: %v", h, err)
	}
	if tid2 != tid || sid2 != sid || flags != FlagSampled {
		t.Errorf("round trip mismatch: got (%s,%s,%02x) want (%s,%s,01)", tid2, sid2, flags, tid, sid)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"short", "00-abc"},
		{"truncated one char", validTP[:54]},
		{"version ff", "ff" + validTP[2:]},
		{"version not hex", "zz" + validTP[2:]},
		{"uppercase trace id", "00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01"},
		{"non-hex trace id", "00-0af7651916cd43dd8448eb211c8031gg-b7ad6b7169203331-01"},
		{"all-zero trace id", "00-00000000000000000000000000000000-b7ad6b7169203331-01"},
		{"all-zero parent id", "00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01"},
		{"non-hex flags", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-0x"},
		{"missing dash after version", "00x0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"},
		{"missing dash after trace id", "00-0af7651916cd43dd8448eb211c80319cxb7ad6b7169203331-01"},
		{"missing dash after parent id", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331x01"},
		{"version 00 with trailer", validTP + "-extra"},
		{"future version with bad separator", "01" + validTP[2:] + "x"},
	}
	for _, tc := range cases {
		if _, _, _, err := ParseTraceparent(tc.in); err == nil {
			t.Errorf("%s: ParseTraceparent(%q) accepted, want error", tc.name, tc.in)
		}
	}
}

func TestParseTraceparentFutureVersion(t *testing.T) {
	// Per spec, a future version parses if the 00-shaped prefix parses and
	// the extra data is separated by a dash (or absent).
	for _, in := range []string{
		"01" + validTP[2:],
		"01" + validTP[2:] + "-future-fields",
	} {
		if _, _, _, err := ParseTraceparent(in); err != nil {
			t.Errorf("ParseTraceparent(%q): %v, want accepted", in, err)
		}
	}
}

func TestMakeTraceIDUnique(t *testing.T) {
	a := MakeTraceID(1, 1)
	b := MakeTraceID(1, 2)
	c := MakeTraceID(2, 1)
	if a == b || a == c || b == c {
		t.Errorf("MakeTraceID collisions: %s %s %s", a, b, c)
	}
	if MakeSpanID(1, 1) == MakeSpanID(1, 2) {
		t.Error("MakeSpanID(1,1) == MakeSpanID(1,2)")
	}
	if MakeSpanID(1, 1).IsZero() {
		t.Error("MakeSpanID produced the invalid all-zero ID")
	}
}

func TestSpanNesting(t *testing.T) {
	tr := NewTrace(MakeTraceID(7, 1), MakeSpanID(7, 1), SpanID{}, 8)
	root := tr.Start("server", "GET /x")
	child := tr.Start("session", "session.propose").AttrInt("shard", 3)
	grand := tr.Start("wal", "wal.fsync").Attr("lane", "0")
	grand.End()
	sibling := tr.Start("sampler", "sampler.propose")
	sibling.End()
	child.End()
	child2 := tr.Start("server", "http.encode")
	child2.End()
	root.End()

	out := tr.Export()
	if len(out.Spans) != 5 {
		t.Fatalf("got %d spans, want 5", len(out.Spans))
	}
	wantParent := []int{-1, 0, 1, 1, 0}
	for i, p := range wantParent {
		if out.Spans[i].Parent != p {
			t.Errorf("span %d (%s) parent = %d, want %d", i, out.Spans[i].Name, out.Spans[i].Parent, p)
		}
	}
	if out.Spans[1].Attrs["shard"] != "3" {
		t.Errorf("shard attr = %q, want 3", out.Spans[1].Attrs["shard"])
	}
	if out.Spans[2].Attrs["lane"] != "0" {
		t.Errorf("lane attr = %q, want 0", out.Spans[2].Attrs["lane"])
	}
	for i, sp := range out.Spans {
		if sp.DurUs < 0 {
			t.Errorf("span %d has negative duration %v", i, sp.DurUs)
		}
	}
}

func TestSpanOverflowCountsDropped(t *testing.T) {
	tr := NewTrace(MakeTraceID(7, 2), MakeSpanID(7, 2), SpanID{}, 2)
	a := tr.Start("server", "root")
	b := tr.Start("session", "fits")
	c := tr.Start("wal", "dropped")
	d := tr.AddSpan("pool", "also dropped", time.Millisecond)
	c.End()
	d.End()
	b.End()
	a.End()
	if got := tr.Dropped(); got != 2 {
		t.Errorf("Dropped() = %d, want 2", got)
	}
	if n := len(tr.Export().Spans); n != 2 {
		t.Errorf("exported %d spans, want 2", n)
	}
}

func TestAddSpanRetroactive(t *testing.T) {
	tr := NewTrace(MakeTraceID(7, 3), MakeSpanID(7, 3), SpanID{}, 8)
	root := tr.Start("server", "root")
	time.Sleep(2 * time.Millisecond)
	tr.AddSpan("sampler", "sampler.rebuild", time.Millisecond)
	root.End()
	out := tr.Export()
	sp := out.Spans[1]
	if sp.Parent != 0 {
		t.Errorf("retroactive span parent = %d, want 0", sp.Parent)
	}
	if sp.DurUs < 999 || sp.DurUs > 1001 {
		t.Errorf("retroactive span dur = %vµs, want ~1000", sp.DurUs)
	}
	if sp.StartUs < 0 {
		t.Errorf("retroactive span start = %vµs, want >= 0", sp.StartUs)
	}
}

// TestBeginCoversRoot pins the no-hole construction the server middleware
// relies on: a Begin span opens at the trace's clock origin, however late
// it is called, and finishing the trace with its End offset makes it cover
// the root span exactly.
func TestBeginCoversRoot(t *testing.T) {
	c := NewCollector(Options{})
	tr := c.New(MakeTraceID(7, 4), MakeSpanID(7, 4), SpanID{})
	time.Sleep(time.Millisecond) // a slow prologue before the span opens
	h := tr.Begin("server", "http.handle")
	tr.Start("session", "session.propose").End()
	c.Finish(tr, h.End(), false)
	out := tr.Export()
	if sp := out.Spans[0]; sp.StartUs != 0 || sp.DurUs != out.DurationUs || sp.DurUs < 1000 {
		t.Fatalf("Begin span starts at %vµs, lasts %vµs; root lasts %vµs", sp.StartUs, sp.DurUs, out.DurationUs)
	}
}

func TestNilTraceIsInert(t *testing.T) {
	var tr *Trace
	sp := tr.Start("server", "x").Attr("k", "v").AttrInt("n", 1)
	if sp.End() != 0 || tr.Begin("server", "y").End() != 0 {
		t.Error("inert span End returned a non-zero offset")
	}
	tr.AddSpan("wal", "y", time.Second)
	tr.SetRequest("/x", "id", 200)
	if tr.Dropped() != 0 || !tr.ID().IsZero() || !tr.RootSpanID().IsZero() {
		t.Error("nil trace accessors not zero")
	}
	ctx := NewContext(t.Context(), nil)
	if FromContext(ctx) != nil {
		t.Error("NewContext(nil trace) stored a value")
	}
	if FromContext(nil) != nil {
		t.Error("FromContext(nil ctx) != nil")
	}
}

// TestUnsampledPathAllocs pins the package's core contract: the
// instrumentation sequence a request executes when it is NOT sampled
// (nil trace from context, span starts/ends, attrs) allocates nothing.
func TestUnsampledPathAllocs(t *testing.T) {
	ctx := t.Context()
	allocs := testing.AllocsPerRun(100, func() {
		tr := FromContext(ctx)
		sp := tr.Start("session", "session.propose").AttrInt("shard", 5)
		inner := tr.Start("wal", "wal.fsync")
		inner.End()
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("unsampled instrumentation allocates %v per op, want 0", allocs)
	}
}

func TestContextRoundTrip(t *testing.T) {
	tr := NewTrace(MakeTraceID(9, 9), MakeSpanID(9, 9), SpanID{}, 4)
	ctx := NewContext(t.Context(), tr)
	if got := FromContext(ctx); got != tr {
		t.Fatalf("FromContext = %p, want %p", got, tr)
	}
}

func TestCollectorFinishClassifies(t *testing.T) {
	c := NewCollector(Options{SampleRate: 1, Slow: 10 * time.Millisecond, Recent: 4, Retained: 4})

	mk := func(seq uint64) *Trace {
		tr := c.New(MakeTraceID(1, seq), MakeSpanID(1, seq), SpanID{})
		sp := tr.Start("server", "GET /x")
		sp.End()
		tr.SetRequest("GET /x", "req", 200)
		return tr
	}

	fast := mk(1)
	c.Finish(fast, time.Millisecond, false)
	slow := mk(2)
	c.Finish(slow, 20*time.Millisecond, false)
	errored := mk(3)
	errored.SetRequest("GET /x", "req3", 500)
	c.Finish(errored, time.Millisecond, true)

	if got := c.Lookup(slow.ID()); got == nil || !got.Export().Slow {
		t.Error("slow trace not retrievable as slow")
	}
	if got := c.Lookup(errored.ID()); got == nil || !got.Export().Errored {
		t.Error("errored trace not retrievable as errored")
	}
	st := c.Stats()
	if st.Recorded != 3 || st.RetainedSlow != 1 || st.RetainedErr != 1 {
		t.Errorf("stats = %+v, want recorded 3, slow 1, err 1", st)
	}

	// Churn the recent ring: the slow trace must survive via the retained
	// ring even after Recent(4) newer fast traces.
	for seq := uint64(10); seq < 20; seq++ {
		c.Finish(mk(seq), time.Millisecond, false)
	}
	if c.Lookup(slow.ID()) == nil {
		t.Error("slow trace evicted by fast-trace churn")
	}
	if c.Lookup(fast.ID()) != nil {
		t.Error("fast trace survived churn past the recent ring capacity")
	}

	// Snapshot dedups the slow trace (it sits in both rings).
	ids := map[string]int{}
	for _, tr := range c.Snapshot() {
		ids[tr.Summarize().ID]++
	}
	for id, n := range ids {
		if n != 1 {
			t.Errorf("trace %s appears %d times in Snapshot", id, n)
		}
	}
}

func TestCollectorSampleRates(t *testing.T) {
	always := NewCollector(Options{SampleRate: 1})
	never := NewCollector(Options{SampleRate: -1})
	for i := 0; i < 100; i++ {
		if !always.Sample() {
			t.Fatal("rate 1 collector skipped a sample")
		}
		if never.Sample() {
			t.Fatal("rate -1 collector took a sample")
		}
	}
	half := NewCollector(Options{SampleRate: 0.5})
	n := 0
	for i := 0; i < 10000; i++ {
		if half.Sample() {
			n++
		}
	}
	if n < 4000 || n > 6000 {
		t.Errorf("rate 0.5 sampled %d/10000, want ~5000", n)
	}
}

func TestTraceparentStringForms(t *testing.T) {
	tid := MakeTraceID(0x0102030405060708, 0x090a0b0c0d0e0f10)
	if got, want := tid.String(), "0102030405060708090a0b0c0d0e0f10"; got != want {
		t.Errorf("TraceID.String() = %q, want %q", got, want)
	}
	h := Traceparent(tid, MakeSpanID(1, 2), 0)
	if len(h) != 55 || strings.ToLower(h) != h {
		t.Errorf("Traceparent %q not 55-char lowercase", h)
	}
}

func TestItoa(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 42, -42, 1<<62 + 3, -(1<<62 + 3)} {
		if got, want := itoa(v), strconv.FormatInt(v, 10); got != want {
			t.Errorf("itoa(%d) = %q, want %q", v, got, want)
		}
	}
}
