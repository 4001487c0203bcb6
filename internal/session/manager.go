package session

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"oasis"
	"oasis/internal/core"
	"oasis/internal/diag"
	"oasis/internal/poolstore"
	"oasis/internal/rng"
	"oasis/internal/trace"
)

// DefaultLeaseTTL is the proposal lease used when neither the manager nor
// the session config sets one.
const DefaultLeaseTTL = time.Minute

// MaxShards caps the shard count. 256 independent lock domains are far past
// the point of diminishing returns for any machine this serves on, and the
// WAL's record header reserves a 16-bit lane tag, so the cap is generous on
// both sides.
const MaxShards = 256

// NormalizeShards clamps n into [1, MaxShards] and rounds it up to the next
// power of two, which is what lets ShardOf mask instead of mod.
func NormalizeShards(n int) int {
	if n < 1 {
		n = 1
	}
	if n > MaxShards {
		n = MaxShards
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// DefaultShards is the GOMAXPROCS-derived shard count oasis-server uses when
// -shards is not set: the next power of two at or above the core count, so
// every core can make independent progress through the session layer.
func DefaultShards() int { return NormalizeShards(runtime.GOMAXPROCS(0)) }

// ShardOf maps a session ID to its shard among `shards` (a power of two),
// via FNV-1a. The mapping is a pure function of the ID, so the WAL computes
// the same lane for a session's records that the manager computes for its
// lock domain.
func ShardOf(id string, shards int) int {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return int(h & uint32(shards-1))
}

// ManagerOptions configures a Manager.
type ManagerOptions struct {
	// DefaultLeaseTTL applies to sessions that do not set Config.LeaseTTL;
	// zero means DefaultLeaseTTL.
	DefaultLeaseTTL time.Duration
	// Now injects a clock, for tests; nil means time.Now.
	Now func() time.Time
	// Journal, when set, durably records every state-changing event before
	// it is acknowledged. When recovery must run first (the WAL replays into
	// a journal-less manager), leave it nil and attach with SetJournal.
	Journal Journal
	// Shards splits the session map into that many independent lock domains
	// (rounded up to a power of two, capped at MaxShards; 0 means 1).
	// Operations on sessions in different shards never contend on a manager
	// lock. The shard count never changes any session's behaviour — sessions
	// are independent samplers — only which lock (and WAL lane) serialises
	// them.
	Shards int
	// Pools, when set, is the content-addressed pool store sessions resolve
	// Config.PoolID references through. Inline configs are interned into it
	// on Create, so durable create records and snapshots carry only the pool
	// hash. Nil keeps the inline-only behaviour.
	Pools *poolstore.Store
	// Metrics, when set, records per-shard counters and latency histograms
	// (see NewMetrics — it must be built for the same shard count). Nil
	// disables instrumentation with zero hot-path cost.
	Metrics *Metrics
	// Diag configures the per-session convergence diagnostics (series ring
	// capacity, degeneracy alarm thresholds, transition logging). The zero
	// value enables diagnostics with the defaults.
	Diag DiagOptions
}

// DiagOptions configures the convergence diagnostics every session records.
type DiagOptions struct {
	// SeriesCapacity is the per-session diagnostics ring capacity in
	// points; 0 selects diag.DefaultCapacity.
	SeriesCapacity int
	// Thresholds are the degeneracy alarm thresholds; zero fields take
	// diag.DefaultThresholds.
	Thresholds diag.Thresholds
	// Logf receives the one-line health transition messages ("session X:
	// sampler health ok -> degraded ..."); nil means log.Printf.
	Logf func(format string, args ...any)
}

// shard is one lock domain of the manager: a slice of the session map with
// its own mutex, reservation set and create barrier.
type shard struct {
	mu       sync.RWMutex
	sessions map[string]*Session
	// reserved holds IDs whose create event is being journaled: the slow
	// fsync of the create record runs outside sh.mu (so it never stalls the
	// shard's other sessions), and the reservation keeps the ID unique
	// meanwhile.
	reserved map[string]bool
	// createMu orders in-flight creates against journal compaction: Create
	// holds the read side from before its journal append until the session is
	// registered, and ShardCreateBarrier takes the write side. Without it a
	// compaction could fold the segment holding a create record, snapshot
	// before the session is registered, and delete the folded segment —
	// losing the acknowledged session and every later event replay would
	// skip. Per-shard, so a slow create in one shard never blocks another
	// shard's compaction.
	createMu sync.RWMutex
}

// Manager owns named evaluation sessions, split across power-of-two shards
// (session-ID hash → shard) so operations on different sessions never
// contend on one lock. All methods are safe for concurrent use; each session
// additionally serialises its own state.
type Manager struct {
	shards []*shard
	opts   ManagerOptions
	jrn    *journalHolder

	// deadMu guards dead: replayed creates whose referenced pool could not
	// be resolved, pending absolution by a later replayed delete. Only WAL
	// recovery touches it; see ReplayEvent and UnresolvedReplayCreates.
	deadMu sync.Mutex
	dead   map[string]error
}

// NewManager returns an empty manager.
func NewManager(opts ManagerOptions) *Manager {
	if opts.DefaultLeaseTTL <= 0 {
		opts.DefaultLeaseTTL = DefaultLeaseTTL
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	if opts.Diag.Logf == nil {
		opts.Diag.Logf = log.Printf
	}
	opts.Shards = NormalizeShards(opts.Shards)
	opts.Metrics.checkShards(opts.Shards)
	shards := make([]*shard, opts.Shards)
	for i := range shards {
		shards[i] = &shard{
			sessions: make(map[string]*Session),
			reserved: make(map[string]bool),
		}
	}
	return &Manager{
		shards: shards,
		opts:   opts,
		jrn:    &journalHolder{j: opts.Journal},
	}
}

// Shards returns the manager's shard count (a power of two).
func (m *Manager) Shards() int { return len(m.shards) }

// ShardFor returns the shard index session id maps to.
func (m *Manager) ShardFor(id string) int { return ShardOf(id, len(m.shards)) }

func (m *Manager) shardFor(id string) *shard { return m.shards[m.ShardFor(id)] }

// SetJournal attaches the durable event journal. wal.Open calls it once
// replay is done — so recovered operations are not re-journaled — and before
// the manager serves live traffic.
func (m *Manager) SetJournal(j Journal) { m.jrn.set(j) }

// ErrNotFound is returned for unknown session IDs.
var ErrNotFound = fmt.Errorf("session: no such session")

// newID returns a fresh random session ID.
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand never fails on supported platforms
	}
	return "s-" + hex.EncodeToString(b[:])
}

// Create builds and registers a session. An empty Config.ID gets a
// generated one; a duplicate ID is an error. With a pool store attached,
// inline pool columns are interned into it first — stored once under their
// content hash, durably, and the config rewritten to reference them — so
// what the journal and snapshots persist is the O(1) PoolID form. With a
// journal attached the creation — configuration, pool reference (or inline
// pool) and seed — is durably appended before the session becomes
// reachable, so the log orders it ahead of every event the session will
// produce; the pool itself is durable before that append, so a create
// record can never name a pool a crash could lose.
func (m *Manager) Create(cfg Config) (*Session, error) {
	return m.CreateCtx(context.Background(), cfg)
}

// CreateCtx is Create with request context: when ctx carries a trace
// (internal/trace), the create records the pool resolution, its shard-lock
// waits vs. holds, the create-barrier wait and the journal append as spans.
func (m *Manager) CreateCtx(ctx context.Context, cfg Config) (*Session, error) {
	tr := trace.FromContext(ctx)
	var start time.Time
	if m.opts.Metrics != nil {
		start = time.Now()
	}
	if cfg.ID == "" {
		cfg.ID = newID()
	}
	// Intern inline pools only into a durable store: a snapshot (or journal)
	// referencing a memory-only pool could never be restored after a
	// restart, whereas an inline config is self-contained. Intern holds a
	// temporary reference until the session has acquired its own, so a
	// concurrent pool delete cannot hit the freshly interned pool in
	// between.
	if m.opts.Pools != nil && m.opts.Pools.Durable() && cfg.PoolID == "" && len(cfg.Scores) > 0 {
		id, release, err := m.opts.Pools.Intern(cfg.Scores, cfg.Preds)
		if err != nil {
			return nil, fmt.Errorf("session: intern pool: %w", err)
		}
		defer release()
		cfg.PoolID = id
		cfg.Scores, cfg.Preds = nil, nil
	}
	bs := tr.Start("session", "session.build")
	s, err := newSession(ctx, cfg, m.opts.DefaultLeaseTTL, m.opts.Now, m.opts.Pools, m.opts.Diag)
	bs.End()
	if err != nil {
		return nil, err
	}
	s.id = cfg.ID
	s.jrn = m.jrn
	shardIdx := m.ShardFor(cfg.ID)
	s.met = m.opts.Metrics.Shard(shardIdx)
	sh := m.shards[shardIdx]
	// Reserve the ID, journal the creation outside sh.mu (the create record's
	// fsync must not stall the shard's other sessions behind the shard lock),
	// then register. The session becomes reachable only after the append, so
	// the log still orders the create ahead of all its events.
	lw := tr.Start("session", "shard.lock_wait").AttrInt("shard", int64(shardIdx))
	sh.mu.Lock()
	lw.End()
	lh := tr.Start("session", "shard.lock_hold")
	if sh.sessions[cfg.ID] != nil || sh.reserved[cfg.ID] {
		sh.mu.Unlock()
		lh.End()
		s.releasePool()
		return nil, fmt.Errorf("session: id %q already exists", cfg.ID)
	}
	sh.reserved[cfg.ID] = true
	sh.mu.Unlock()
	lh.End()
	// Hold the shard's create barrier across append+register so a concurrent
	// compaction of this shard's lane cannot snapshot between the two: see
	// shard.createMu.
	bw := tr.Start("session", "create.barrier_wait")
	sh.createMu.RLock()
	bw.End()
	defer sh.createMu.RUnlock()
	var lsn uint64
	var jerr error
	if j := m.jrn.get(); j != nil {
		lsn, jerr = j.Append(&Event{Type: EventCreate, Session: cfg.ID, Config: &cfg, Trace: tr})
	}
	lw2 := tr.Start("session", "shard.lock_wait").AttrInt("shard", int64(shardIdx))
	sh.mu.Lock()
	lw2.End()
	lh2 := tr.Start("session", "shard.lock_hold")
	defer lh2.End()
	defer sh.mu.Unlock()
	delete(sh.reserved, cfg.ID)
	if jerr != nil {
		s.releasePool()
		return nil, fmt.Errorf("session: journal create: %w", jerr)
	}
	s.lastLSN = lsn
	sh.sessions[cfg.ID] = s
	if s.met != nil {
		s.met.Creates.Inc()
		s.met.CreateSeconds.Observe(time.Since(start).Seconds())
	}
	return s, nil
}

// ShardCreateBarrier returns once every in-flight Create targeting the given
// shard — one that may already have journaled its create event — has
// registered (or abandoned) its session, so a shard snapshot taken
// afterwards cannot miss a session whose create record sits in an
// already-rotated lane segment. wal.Journal.CompactShard calls it between
// rotating the shard's lane to a fresh segment and snapshotting the shard:
// creates that start after the rotation append beyond the compaction
// boundary and need no barrier.
func (m *Manager) ShardCreateBarrier(shard int) {
	sh := m.shards[shard]
	// The empty critical section is the barrier: Lock waits for every
	// outstanding RLock held by an in-flight Create.
	sh.createMu.Lock()
	sh.createMu.Unlock() //nolint:staticcheck // empty critical section is the point
}

// CreateBarrier waits on every shard's create barrier (see
// ShardCreateBarrier). Whole-manager snapshots take it before reading.
func (m *Manager) CreateBarrier() {
	for i := range m.shards {
		m.ShardCreateBarrier(i)
	}
}

// Get returns the named session or ErrNotFound.
func (m *Manager) Get(id string) (*Session, error) {
	return m.GetCtx(context.Background(), id)
}

// GetCtx is Get with request context: when ctx carries a trace, the shard
// read-lock wait (contention against same-shard creates/deletes) and hold
// are recorded as spans.
func (m *Manager) GetCtx(ctx context.Context, id string) (*Session, error) {
	tr := trace.FromContext(ctx)
	shardIdx := m.ShardFor(id)
	sh := m.shards[shardIdx]
	lw := tr.Start("session", "shard.lock_wait").AttrInt("shard", int64(shardIdx))
	sh.mu.RLock()
	lw.End()
	lh := tr.Start("session", "shard.lock_hold")
	defer lh.End()
	defer sh.mu.RUnlock()
	s, ok := sh.sessions[id]
	if !ok {
		return nil, ErrNotFound
	}
	return s, nil
}

// Delete removes the named session, releasing its memory. With a journal
// attached the deletion is durably appended first.
func (m *Manager) Delete(id string) error {
	sh := m.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s, ok := sh.sessions[id]
	if !ok {
		return ErrNotFound
	}
	// Unlike Create, the delete append stays under sh.mu: releasing the lock
	// before the append would let a racing re-Create of the same ID (same
	// shard, by construction) journal its create record ahead of this delete,
	// which replay would reject as a duplicate. Deletes are rare; the one
	// fsync under the shard lock is fine — and it stalls only this shard.
	if j := m.jrn.get(); j != nil {
		if _, err := j.Append(&Event{Type: EventDelete, Session: id}); err != nil {
			return fmt.Errorf("session: journal delete: %w", err)
		}
	}
	delete(sh.sessions, id)
	s.releasePool()
	if s.met != nil {
		s.met.Deletes.Inc()
	}
	return nil
}

// Sessions snapshots one shard's session pointers. The metrics collector
// iterates it at scrape time to export per-session sampler health.
func (m *Manager) Sessions(shard int) []*Session {
	return m.sessionsOfShard(shard)
}

// sessionsOfShard snapshots one shard's session pointers under its read
// lock.
func (m *Manager) sessionsOfShard(shard int) []*Session {
	sh := m.shards[shard]
	sh.mu.RLock()
	all := make([]*Session, 0, len(sh.sessions))
	for _, s := range sh.sessions {
		all = append(all, s)
	}
	sh.mu.RUnlock()
	return all
}

// ListShard reports the status of one shard's sessions, sorted by ID. The
// shard lock is held only while copying pointers; status marshalling runs
// against each session's own lock.
func (m *Manager) ListShard(shard int) []Status {
	all := m.sessionsOfShard(shard)
	out := make([]Status, len(all))
	for i, s := range all {
		out[i] = s.Status()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// List reports the status of every session, sorted by ID. It snapshots each
// shard in turn and merges — no lock is global, and no shard lock is held
// while statuses are marshalled.
func (m *Manager) List() []Status {
	var out []Status
	for i := range m.shards {
		out = append(out, m.ListShard(i)...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len returns the number of live sessions.
func (m *Manager) Len() int {
	n := 0
	for _, sh := range m.shards {
		sh.mu.RLock()
		n += len(sh.sessions)
		sh.mu.RUnlock()
	}
	return n
}

// sessionSnapshot pairs a session's config with its sampler state: under
// "sampler" for OASIS sessions, under "passive" in the passive shape for
// Passive ones. LastLSN is the session's journal high-water mark at
// snapshot time: WAL replay skips the session's events at or below it,
// which is what lets compaction fold cold segments into a snapshot. Leases
// lists the pairs with a live lease; together with the sampler state's
// pending draws this makes the snapshot exact — restored sessions hold the
// same outstanding proposals (re-leased for a fresh TTL), so WAL tail events
// replay against the snapshot bit-for-bit.
type sessionSnapshot struct {
	Config  Config              `json:"config"`
	LastLSN uint64              `json:"lastLSN,omitempty"`
	Leases  []int               `json:"leases,omitempty"`
	Sampler *oasis.SamplerState `json:"sampler,omitempty"`
	Passive *passiveState       `json:"passive,omitempty"`
	// Diag is the convergence-diagnostics series and alarm state, present
	// once the session has recorded at least one commit batch (omitempty
	// keeps pre-diagnostics snapshots decodable — they restore with an
	// empty series).
	Diag *diag.TrackerState `json:"diag,omitempty"`
}

// samplerState returns the snapshot's sampler state, nil when it has none.
func (snap *sessionSnapshot) samplerState() (*oasis.SamplerState, error) {
	if snap.Passive == nil {
		return snap.Sampler, nil
	}
	if snap.Sampler != nil {
		return nil, errors.New("session: snapshot carries both sampler and passive state")
	}
	return snap.Passive.samplerState()
}

// passiveState is the snapshot shape of a Passive session's sampler: the
// estimator sums and random stream flattened beside the labels, and each
// outstanding proposal as its draw weight plus a count of unit-weight
// re-draws (Passive has one stratum and unit weights, so that is all of
// oasis.SamplerState). WAL snapshots store it under "passive".
type passiveState struct {
	Num     float64               `json:"num"`
	Pred    float64               `json:"pred"`
	True    float64               `json:"true"`
	N       int                   `json:"n"`
	RNG     rng.State             `json:"rng"`
	Labels  map[int]bool          `json:"labels,omitempty"`
	Pending []passivePendingState `json:"pending,omitempty"`
	// Weight moments for the health gauges; omitempty keeps pre-moment
	// snapshots decodable (they restore as "health unknown").
	SumW  float64 `json:"sumW,omitempty"`
	SumW2 float64 `json:"sumW2,omitempty"`
	YY    float64 `json:"yy,omitempty"`
	YZ    float64 `json:"yz,omitempty"`
	ZZ    float64 `json:"zz,omitempty"`
}

// passivePendingState is one outstanding proposal in a passiveState.
type passivePendingState struct {
	Pair  int     `json:"pair"`
	First float64 `json:"w"`
	Extra int     `json:"extra,omitempty"`
}

// newPassiveState converts a Passive sampler's state to the passive shape,
// pending proposals sorted by pair for deterministic snapshot bytes.
func newPassiveState(st *oasis.SamplerState) *passiveState {
	e := st.Core.Estimator
	ps := &passiveState{
		Num: e.Num, Pred: e.Pred, True: e.True, N: e.N,
		RNG:    st.Core.RNG,
		Labels: st.Labels,
		SumW:   e.SumW, SumW2: e.SumW2, YY: e.YY, YZ: e.YZ, ZZ: e.ZZ,
	}
	for _, p := range st.Pending {
		ps.Pending = append(ps.Pending, passivePendingState{Pair: p.Pair, First: p.Weight, Extra: len(p.Extra)})
	}
	sort.Slice(ps.Pending, func(i, j int) bool { return ps.Pending[i].Pair < ps.Pending[j].Pair })
	return ps
}

// samplerState converts the passive shape back; the sampler's RestoreState
// validates the result.
func (ps *passiveState) samplerState() (*oasis.SamplerState, error) {
	st := &oasis.SamplerState{
		Core: &core.State{
			Estimator: core.EstimatorState{
				Num: ps.Num, Pred: ps.Pred, True: ps.True, N: ps.N,
				SumW: ps.SumW, SumW2: ps.SumW2, YY: ps.YY, YZ: ps.YZ, ZZ: ps.ZZ,
			},
			RNG: ps.RNG,
		},
		Labels: ps.Labels,
	}
	for _, p := range ps.Pending {
		if p.Extra < 0 {
			return nil, fmt.Errorf("session: snapshot proposal for pair %d has %d re-draws", p.Pair, p.Extra)
		}
		pd := oasis.PendingDraw{Pair: p.Pair, Weight: p.First}
		for j := 0; j < p.Extra; j++ {
			pd.Extra = append(pd.Extra, oasis.DrawTerm{Weight: 1})
		}
		st.Pending = append(st.Pending, pd)
	}
	return st, nil
}

// snapshotFile is the on-disk format of Manager.Snapshot.
type snapshotFile struct {
	Version  int               `json:"version"`
	Sessions []sessionSnapshot `json:"sessions"`
}

// snapshot captures one session, leases included (deadlines are not
// persisted: a restore re-leases each outstanding pair for one fresh TTL,
// and the WAL boot barrier releases them instead after a crash).
func (s *Session) snapshot() sessionSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := sessionSnapshot{Config: s.cfg, LastLSN: s.lastLSN}
	snap.Config.ID = s.id
	if len(s.leases) > 0 {
		snap.Leases = make([]int, 0, len(s.leases))
		for pair := range s.leases {
			snap.Leases = append(snap.Leases, pair)
		}
		sort.Ints(snap.Leases) // deterministic snapshot bytes
	}
	if st := s.sampler.State(); s.cfg.Method == MethodPassive {
		snap.Passive = newPassiveState(st)
	} else {
		snap.Sampler = st
	}
	if s.diag != nil && s.diag.Series().Seen() > 0 {
		snap.Diag = s.diag.Snapshot()
	}
	return snap
}

// snapshotSessions serialises the given sessions, sorted by ID, in the
// snapshotFile format.
func snapshotSessions(all []*Session) ([]byte, error) {
	sort.Slice(all, func(i, j int) bool { return all[i].id < all[j].id })
	file := snapshotFile{Version: 1}
	for _, s := range all {
		file.Sessions = append(file.Sessions, s.snapshot())
	}
	return json.Marshal(file)
}

// Snapshot serialises every session — pool, configuration, posterior state,
// random stream and purchased labels — to JSON. The format is independent of
// the shard count: sessions are sorted by ID, so managers with different
// shard counts produce identical snapshots of identical state.
func (m *Manager) Snapshot() ([]byte, error) {
	var all []*Session
	for i := range m.shards {
		all = append(all, m.sessionsOfShard(i)...)
	}
	return snapshotSessions(all)
}

// SnapshotShard serialises one shard's sessions in the same format as
// Snapshot. WAL per-shard compaction folds a shard's journal lane into it.
func (m *Manager) SnapshotShard(shard int) ([]byte, error) {
	return snapshotSessions(m.sessionsOfShard(shard))
}

// lockAll write-locks every shard in index order (the one lock ordering,
// so concurrent restores cannot deadlock).
func (m *Manager) lockAll() {
	for _, sh := range m.shards {
		sh.mu.Lock()
	}
}

func (m *Manager) unlockAll() {
	for _, sh := range m.shards {
		sh.mu.Unlock()
	}
}

// RestoreReplay registers every session in a Snapshot payload, resuming
// each sampler exactly where it left off: estimates, posteriors, random
// streams and outstanding proposals are bit-identical, with each leased pair
// re-leased for one fresh TTL (WAL recovery then drops every lease at the
// boot barrier). Sessions land in the shard their ID hashes to, so a
// snapshot taken at one shard count restores into a manager with any other.
//
// A session whose referenced pool cannot be resolved is parked (see
// ErrPoolUnavailable) instead of aborting the restore, because the
// un-replayed journal tail may hold the delete that explains the missing
// pool — a session folded into a compaction snapshot while live, then
// deleted, then its pool removed. wal.Open fails the boot afterwards if any
// parked session was never absolved (UnresolvedReplayCreates). Every other
// failure is all-or-nothing: existing sessions with clashing IDs abort the
// restore before any registration, and on any abort no session is
// registered and every pool-store reference taken along the way is
// returned.
func (m *Manager) RestoreReplay(data []byte) (err error) {
	var file snapshotFile
	if err := json.Unmarshal(data, &file); err != nil {
		return fmt.Errorf("session: bad snapshot: %w", err)
	}
	if file.Version != 1 {
		return fmt.Errorf("session: unsupported snapshot version %d", file.Version)
	}
	restored := make([]*Session, 0, len(file.Sessions))
	defer func() {
		// Failed restores must not leak shared-pool references: none of the
		// part-built sessions will ever be registered or deleted.
		if err != nil {
			for _, s := range restored {
				s.releasePool()
			}
		}
	}()
	seen := make(map[string]bool, len(file.Sessions))
	for _, snap := range file.Sessions {
		if seen[snap.Config.ID] {
			return fmt.Errorf("session: duplicate id %q in snapshot", snap.Config.ID)
		}
		seen[snap.Config.ID] = true
		sh := m.shardFor(snap.Config.ID)
		sh.mu.RLock()
		clash := sh.sessions[snap.Config.ID] != nil || sh.reserved[snap.Config.ID]
		sh.mu.RUnlock()
		if clash {
			return fmt.Errorf("session: id %q already exists", snap.Config.ID)
		}
	}
	for _, snap := range file.Sessions {
		s, err := newSession(context.Background(), snap.Config, m.opts.DefaultLeaseTTL, m.opts.Now, m.opts.Pools, m.opts.Diag)
		if errors.Is(err, ErrPoolUnavailable) {
			// Park instead of aborting: tail replay may delete this session,
			// absolving the missing pool; wal.Open checks for leftovers.
			m.park(snap.Config.ID, err)
			continue
		}
		if err != nil {
			return fmt.Errorf("session: restore %q: %w", snap.Config.ID, err)
		}
		restored = append(restored, s)
		s.id = snap.Config.ID
		s.jrn = m.jrn
		s.met = m.opts.Metrics.Shard(m.ShardFor(s.id))
		s.lastLSN = snap.LastLSN
		st, err := snap.samplerState()
		var labelled map[int]bool
		if err == nil && st != nil {
			err = s.sampler.RestoreState(st)
			labelled = st.Labels
		}
		if err != nil {
			return fmt.Errorf("session: restore %q: %w", s.id, err)
		}
		if snap.Diag != nil {
			// The ring capacity rides the snapshot (byte-stable series even
			// across a capacity reconfiguration); the thresholds are live
			// configuration and come from the manager.
			tracker, derr := diag.RestoreTracker(snap.Diag, m.opts.Diag.Thresholds)
			if derr != nil {
				return fmt.Errorf("session: restore %q: %w", s.id, derr)
			}
			s.diag = tracker
		}
		deadline := m.opts.Now().Add(s.leaseTTL)
		for _, pair := range snap.Leases {
			if pair < 0 || pair >= s.poolSize {
				return fmt.Errorf("session: restore %q: lease for pair %d outside pool of %d", s.id, pair, s.poolSize)
			}
			_, dup := s.leases[pair]
			if _, done := labelled[pair]; dup || done {
				return fmt.Errorf("session: restore %q: lease for pair %d clashes with its label state", s.id, pair)
			}
			s.leases[pair] = deadline
		}
	}
	// Registration is all-or-nothing across shards: take every shard lock (in
	// index order), re-check for clashes, then register.
	m.lockAll()
	defer m.unlockAll()
	for _, s := range restored {
		sh := m.shardFor(s.id)
		if sh.sessions[s.id] != nil || sh.reserved[s.id] {
			return fmt.Errorf("session: id %q already exists", s.id)
		}
	}
	for _, s := range restored {
		m.shardFor(s.id).sessions[s.id] = s
	}
	return nil
}

// ReplayShardRestart applies a journaled restart to one shard: every
// outstanding lease of the shard's sessions is dropped. WAL lane replay
// calls it for the per-lane restart records, so concurrent lane recoveries
// only touch their own shard.
func (m *Manager) ReplayShardRestart(shard int) {
	for _, s := range m.sessionsOfShard(shard) {
		s.dropAllLeases()
	}
}

// ReplayEvent applies one journaled event during write-ahead-log recovery
// (wal.Open drives it record by record, in per-lane log order). Events
// already folded into the snapshot the manager was restored from —
// per-session LSN at or below the restored watermark — and events for
// unknown (since-deleted) sessions are skipped. ReplayEvent never appends to
// the journal; it returns whether the event was applied.
func (m *Manager) ReplayEvent(ev *Event) (bool, error) {
	switch ev.Type {
	case EventRestart:
		for i := range m.shards {
			m.ReplayShardRestart(i)
		}
		return true, nil
	case EventCreate:
		if ev.Config == nil {
			return false, fmt.Errorf("session: replay create %q without config", ev.Session)
		}
		sh := m.shardFor(ev.Session)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		if cur, ok := sh.sessions[ev.Session]; ok {
			if ev.LSN <= cur.LastLSN() {
				return false, nil // folded into the snapshot
			}
			return false, fmt.Errorf("session: replay create %q: already exists", ev.Session)
		}
		cfg := *ev.Config
		cfg.ID = ev.Session
		s, err := newSession(context.Background(), cfg, m.opts.DefaultLeaseTTL, m.opts.Now, m.opts.Pools, m.opts.Diag)
		if errors.Is(err, ErrPoolUnavailable) {
			// The pool may have been legitimately removed after this session
			// was deleted — with the delete record still in the un-compacted
			// tail ahead. Park the failure instead of fail-stopping here; a
			// later replayed delete absolves it, and wal.Open turns any
			// unabsolved entry into the deterministic boot error via
			// UnresolvedReplayCreates.
			m.park(ev.Session, err)
			return false, nil
		}
		if err != nil {
			return false, fmt.Errorf("session: replay create %q: %w", ev.Session, err)
		}
		s.id = cfg.ID
		s.jrn = m.jrn
		// Replayed events never count as live traffic, but the recovered
		// session must instrument the traffic it serves from here on.
		s.met = m.opts.Metrics.Shard(m.ShardFor(cfg.ID))
		s.lastLSN = ev.LSN
		sh.sessions[cfg.ID] = s
		return true, nil
	case EventDelete:
		sh := m.shardFor(ev.Session)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		s, ok := sh.sessions[ev.Session]
		if !ok {
			// The delete absolves a create parked on an unresolvable pool:
			// the session never needed to exist in the recovered state.
			m.deadMu.Lock()
			delete(m.dead, ev.Session)
			m.deadMu.Unlock()
			return false, nil
		}
		if ev.LSN <= s.LastLSN() {
			return false, nil
		}
		delete(sh.sessions, ev.Session)
		s.releasePool()
		return true, nil
	case EventPropose, EventCommit, EventRelease:
		sh := m.shardFor(ev.Session)
		sh.mu.RLock()
		s, ok := sh.sessions[ev.Session]
		sh.mu.RUnlock()
		if !ok {
			return false, nil
		}
		return s.replayEvent(ev)
	default:
		return false, fmt.Errorf("session: replay: unknown event type %q", ev.Type)
	}
}

// park records a replayed session whose pool could not be resolved; the
// first failure per ID is the one reported.
func (m *Manager) park(id string, err error) {
	m.deadMu.Lock()
	defer m.deadMu.Unlock()
	if m.dead == nil {
		m.dead = make(map[string]error)
	}
	if _, seen := m.dead[id]; !seen {
		m.dead[id] = err
	}
}

// UnresolvedReplayCreates reports the replayed creates whose referenced
// pool could not be resolved and that no later delete absolved, as a
// deterministic (ID-sorted) error — nil when recovery is clean. wal.Open
// consults it after replay: an unabsolved entry means a live session's pool
// is genuinely missing or corrupt, which must fail the boot rather than
// silently drop the session.
func (m *Manager) UnresolvedReplayCreates() error {
	m.deadMu.Lock()
	defer m.deadMu.Unlock()
	if len(m.dead) == 0 {
		return nil
	}
	ids := make([]string, 0, len(m.dead))
	for id := range m.dead {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	msgs := make([]string, len(ids))
	for i, id := range ids {
		msgs[i] = fmt.Sprintf("%q: %v", id, m.dead[id])
	}
	return fmt.Errorf("session: replay: %d session(s) reference unresolvable pools and were never deleted: %s",
		len(ids), strings.Join(msgs, "; "))
}

// MaxJournalLSN returns the highest journal LSN recorded by any live session
// — the watermark above which the WAL resumes sequence numbers after a
// snapshot-based recovery.
func (m *Manager) MaxJournalLSN() uint64 {
	var max uint64
	for i := range m.shards {
		for _, s := range m.sessionsOfShard(i) {
			if l := s.LastLSN(); l > max {
				max = l
			}
		}
	}
	return max
}
