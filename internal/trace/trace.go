// Package trace is the request-tracing counterpart to internal/obs: a
// dependency-free span recorder built for a hot path that is usually not
// tracing. A request that is not sampled carries a nil *Trace, and every
// method on a nil *Trace or zero Span is a no-op that allocates nothing,
// so instrumentation can be written unconditionally at every layer
// (server, session, sampler, WAL, pool store) and costs only a nil check
// when the request is not recorded.
//
// A Trace is a fixed-capacity array of spans filled in by one request
// goroutine: Start pushes a span whose parent is the innermost span still
// open, End pops it and stamps the duration off the trace's monotonic
// start time. Traces are not safe for concurrent span recording — the
// propose/commit path runs each request on a single goroutine, which is
// what makes the builder allocation- and lock-free — but a completed
// trace is immutable and may be read from any goroutine once it has been
// published through a Collector.
//
// Trace identity follows the W3C Trace Context draft: ParseTraceparent
// and Traceparent convert between the wire form
// ("00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>") and binary
// IDs, so callers can hand a trace ID to the service and fish the
// recorded timeline back out of GET /debug/traces/{id}.
package trace

import (
	"context"
	"errors"
	"time"
)

// TraceID is the 16-byte W3C trace identifier.
type TraceID [16]byte

// SpanID is the 8-byte W3C span (parent) identifier.
type SpanID [8]byte

// IsZero reports whether the ID is all zero (invalid per W3C).
func (id TraceID) IsZero() bool { return id == TraceID{} }

// IsZero reports whether the ID is all zero (invalid per W3C).
func (id SpanID) IsZero() bool { return id == SpanID{} }

const hexDigits = "0123456789abcdef"

// String renders the ID as 32 lowercase hex digits.
func (id TraceID) String() string {
	var b [32]byte
	for i, v := range id {
		b[2*i] = hexDigits[v>>4]
		b[2*i+1] = hexDigits[v&0xf]
	}
	return string(b[:])
}

// String renders the ID as 16 lowercase hex digits.
func (id SpanID) String() string {
	var b [16]byte
	for i, v := range id {
		b[2*i] = hexDigits[v>>4]
		b[2*i+1] = hexDigits[v&0xf]
	}
	return string(b[:])
}

// FlagSampled is the traceparent flag bit requesting that the callee
// record the trace.
const FlagSampled = 0x01

// Traceparent errors, distinguished for tests; callers usually only care
// that the header was unusable.
var (
	errTraceparentLength  = errors.New("trace: traceparent too short")
	errTraceparentVersion = errors.New("trace: invalid traceparent version")
	errTraceparentHex     = errors.New("trace: traceparent field is not lowercase hex")
	errTraceparentDash    = errors.New("trace: traceparent field separator missing")
	errTraceparentZeroID  = errors.New("trace: traceparent carries an all-zero ID")
)

// hexVal decodes one lowercase hex digit; ok is false for anything else
// (uppercase is invalid in traceparent by spec).
func hexVal(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	}
	return 0, false
}

func hexByte(s string) (byte, bool) {
	hi, ok1 := hexVal(s[0])
	lo, ok2 := hexVal(s[1])
	return hi<<4 | lo, ok1 && ok2
}

// ParseTraceparent parses a W3C traceparent header value:
//
//	version "-" trace-id "-" parent-id "-" flags
//	  00    -  32 hex    -   16 hex    -  2 hex
//
// Validation follows the spec: fields must be lowercase hex, version ff
// is invalid, all-zero trace or parent IDs are rejected, version 00 must
// be exactly 55 bytes, and a future version is accepted if its first
// four fields parse and are followed by "-" or end-of-string.
func ParseTraceparent(h string) (tid TraceID, sid SpanID, flags byte, err error) {
	if len(h) < 55 {
		return tid, sid, 0, errTraceparentLength
	}
	ver, ok := hexByte(h[0:2])
	if !ok {
		return tid, sid, 0, errTraceparentHex
	}
	if ver == 0xff {
		return tid, sid, 0, errTraceparentVersion
	}
	if h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return tid, sid, 0, errTraceparentDash
	}
	for i := 0; i < 16; i++ {
		b, ok := hexByte(h[3+2*i : 5+2*i])
		if !ok {
			return TraceID{}, sid, 0, errTraceparentHex
		}
		tid[i] = b
	}
	for i := 0; i < 8; i++ {
		b, ok := hexByte(h[36+2*i : 38+2*i])
		if !ok {
			return TraceID{}, SpanID{}, 0, errTraceparentHex
		}
		sid[i] = b
	}
	flags, ok = hexByte(h[53:55])
	if !ok {
		return TraceID{}, SpanID{}, 0, errTraceparentHex
	}
	switch {
	case ver == 0 && len(h) != 55:
		return TraceID{}, SpanID{}, 0, errTraceparentLength
	case ver != 0 && len(h) > 55 && h[55] != '-':
		return TraceID{}, SpanID{}, 0, errTraceparentDash
	}
	if tid.IsZero() || sid.IsZero() {
		return TraceID{}, SpanID{}, 0, errTraceparentZeroID
	}
	return tid, sid, flags, nil
}

// ParseTraceID parses a 32-digit lowercase-hex trace ID (the String form),
// rejecting the all-zero ID — the shape /debug/traces/{id} accepts.
func ParseTraceID(s string) (TraceID, error) {
	var tid TraceID
	if len(s) != 32 {
		return tid, errTraceparentLength
	}
	for i := 0; i < 16; i++ {
		b, ok := hexByte(s[2*i : 2*i+2])
		if !ok {
			return TraceID{}, errTraceparentHex
		}
		tid[i] = b
	}
	if tid.IsZero() {
		return TraceID{}, errTraceparentZeroID
	}
	return tid, nil
}

// Traceparent renders a version-00 traceparent header value.
func Traceparent(tid TraceID, sid SpanID, flags byte) string {
	var b [55]byte
	b[0], b[1], b[2] = '0', '0', '-'
	for i, v := range tid {
		b[3+2*i] = hexDigits[v>>4]
		b[4+2*i] = hexDigits[v&0xf]
	}
	b[35] = '-'
	for i, v := range sid {
		b[36+2*i] = hexDigits[v>>4]
		b[37+2*i] = hexDigits[v&0xf]
	}
	b[52] = '-'
	b[53] = hexDigits[flags>>4]
	b[54] = hexDigits[flags&0xf]
	return string(b[:])
}

// MakeTraceID builds a trace ID from the server's random boot prefix and
// a per-boot request sequence number: globally unique across restarts
// (the prefix) yet aligned with the access log's request IDs (the
// sequence), so a trace ID is greppable in the log and vice versa.
func MakeTraceID(boot, seq uint64) TraceID {
	var id TraceID
	putUint64(id[0:8], boot)
	putUint64(id[8:16], seq)
	return id
}

// MakeSpanID derives a span ID by mixing the sequence into the boot
// prefix (splitmix64 finalizer): unique per request without per-span
// randomness on the hot path.
func MakeSpanID(boot, seq uint64) SpanID {
	z := boot ^ (seq + 0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1 // all-zero span IDs are invalid on the wire
	}
	var id SpanID
	putUint64(id[:], z)
	return id
}

func putUint64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v >> 56)
	b[1] = byte(v >> 48)
	b[2] = byte(v >> 40)
	b[3] = byte(v >> 32)
	b[4] = byte(v >> 24)
	b[5] = byte(v >> 16)
	b[6] = byte(v >> 8)
	b[7] = byte(v)
}

// An Attr is one key/value annotation on a span ("lane"="3",
// "mode"="mmap"). Values are strings; AttrInt formats integers, which
// allocates only on the sampled path.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// maxAttrs bounds annotations per span; extras are dropped silently
// (spans stay fixed-size so a trace never reallocates mid-request).
const maxAttrs = 4

// span is the in-memory record; exported via Export once complete.
type span struct {
	layer  string
	name   string
	parent int32 // index into Trace.spans; -1 for the root
	nattrs int8
	start  time.Duration // offset from Trace start (monotonic)
	dur    time.Duration
	attrs  [maxAttrs]Attr
}

// Trace accumulates the spans of one sampled request. The zero value is
// not usable; Collector.New or NewTrace build one. All span-recording
// methods must be called from the single goroutine serving the request.
type Trace struct {
	id     TraceID
	root   SpanID // our root span's wire ID (reported in the response traceparent)
	remote SpanID // inbound parent span ID, zero when the trace starts here
	start  time.Time
	wall   time.Time // wall clock at start, for human-readable export

	// Request annotations stamped by the server middleware when the
	// request completes, before the trace is published.
	route   string
	reqID   string
	status  int
	dur     time.Duration // root span wall time, set by Finish
	slow    bool          // set by Collector.Finish
	errored bool          // set by Collector.Finish

	spans   []span
	n       int32
	cur     int32 // innermost open span, -1 at top level
	dropped int32
}

// NewTrace builds a trace with capacity for maxSpans spans. remote is
// the inbound traceparent's parent-id (zero when the trace originates
// here); root is the span ID this service reports upstream.
func NewTrace(id TraceID, root, remote SpanID, maxSpans int) *Trace {
	if maxSpans <= 0 {
		maxSpans = DefaultMaxSpans
	}
	t := &Trace{
		id:     id,
		root:   root,
		remote: remote,
		spans:  make([]span, 0, maxSpans),
		cur:    -1,
	}
	// Clock start is stamped after the span-array allocation so the trace's
	// own setup cost is not a hole at the front of its timeline.
	t.start = time.Now()
	t.wall = t.start
	return t
}

// ID returns the trace identifier (zero for a nil trace).
func (t *Trace) ID() TraceID {
	if t == nil {
		return TraceID{}
	}
	return t.id
}

// RootSpanID returns the wire ID of the root span.
func (t *Trace) RootSpanID() SpanID {
	if t == nil {
		return SpanID{}
	}
	return t.root
}

// Span is a cheap handle on one recorded span: a trace pointer plus an
// index, passed by value. The zero Span (and any span started on a nil
// trace) is inert — Attr and End do nothing.
type Span struct {
	t *Trace
	i int32
}

// Start opens a span under the innermost open span. layer names the
// subsystem ("server", "session", "sampler", "wal", "pool"); name the
// stage within it ("wal.fsync", "shard.lock_wait"). When the trace's
// span array is full the span is counted as dropped and an inert handle
// returned — the request still completes, the timeline just truncates.
func (t *Trace) Start(layer, name string) Span {
	if t == nil {
		return Span{}
	}
	if int(t.n) == cap(t.spans) {
		t.dropped++
		return Span{}
	}
	i := t.n
	t.spans = t.spans[:i+1]
	sp := &t.spans[i]
	sp.layer = layer
	sp.name = name
	sp.parent = t.cur
	sp.start = time.Since(t.start)
	t.n = i + 1
	t.cur = i
	return Span{t: t, i: i}
}

// Begin is Start for the request-wide span: it opens at the trace's clock
// origin (offset 0) instead of now, so nothing the caller does between
// creating the trace and opening the span sits outside it. Handing its
// End offset to Collector.Finish makes it cover the root span exactly.
func (t *Trace) Begin(layer, name string) Span {
	sp := t.Start(layer, name)
	if sp.t != nil {
		sp.t.spans[sp.i].start = 0
	}
	return sp
}

// AddSpan records an already-measured span of the given duration ending
// now, parented under the innermost open span. It is the retroactive
// form of Start/End for stages whose timing is accumulated elsewhere
// (the sampler's dirty-flag cache rebuild reports nanoseconds, not a
// start/stop pair).
func (t *Trace) AddSpan(layer, name string, dur time.Duration) Span {
	if t == nil {
		return Span{}
	}
	if int(t.n) == cap(t.spans) {
		t.dropped++
		return Span{}
	}
	i := t.n
	t.spans = t.spans[:i+1]
	sp := &t.spans[i]
	sp.layer = layer
	sp.name = name
	sp.parent = t.cur
	sp.dur = dur
	if since := time.Since(t.start); since > dur {
		sp.start = since - dur
	}
	t.n = i + 1
	return Span{t: t, i: i}
}

// Attr annotates the span; at most maxAttrs stick. Returns the span for
// chaining.
func (s Span) Attr(key, value string) Span {
	if s.t == nil {
		return s
	}
	sp := &s.t.spans[s.i]
	if int(sp.nattrs) < maxAttrs {
		sp.attrs[sp.nattrs] = Attr{Key: key, Value: value}
		sp.nattrs++
	}
	return s
}

// AttrInt annotates the span with a decimal integer value.
func (s Span) AttrInt(key string, v int64) Span {
	if s.t == nil {
		return s
	}
	return s.Attr(key, itoa(v))
}

// itoa is strconv.FormatInt without the import — keeps the package
// dependency surface at context+time (plus errors for parse failures).
func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	u := uint64(v)
	neg := v < 0
	if neg {
		u = uint64(-v)
	}
	for u > 0 {
		i--
		b[i] = byte('0' + u%10)
		u /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

// End closes the span, stamping its duration, and returns its end offset
// from the trace's start (0 for an inert span). Closing out of order is
// tolerated: the open-span cursor only pops when the ended span is the
// innermost one, so a leaked child mis-parents later spans rather than
// corrupting the array.
func (s Span) End() time.Duration {
	if s.t == nil {
		return 0
	}
	sp := &s.t.spans[s.i]
	end := time.Since(s.t.start)
	sp.dur = end - sp.start
	if s.t.cur == s.i {
		s.t.cur = sp.parent
	}
	return end
}

// SetRequest stamps the request annotations (route pattern, request ID,
// HTTP status) the middleware knows; called once before Finish.
func (t *Trace) SetRequest(route, reqID string, status int) {
	if t == nil {
		return
	}
	t.route = route
	t.reqID = reqID
	t.status = status
}

// Dropped reports spans that did not fit the fixed-capacity array.
func (t *Trace) Dropped() int {
	if t == nil {
		return 0
	}
	return int(t.dropped)
}

// ctxKey is the private context key for the trace pointer.
type ctxKey struct{}

// NewContext returns ctx carrying t. A nil t returns ctx unchanged, so
// the unsampled path never allocates a context.
func NewContext(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the trace carried by ctx, or nil. Safe on a nil
// context.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}
