// Package wal gives the evaluation service a durable label journal: a
// segmented, append-only, CRC-checked write-ahead log of session lifecycle
// events (create, propose, label-commit, release, delete) with a
// configurable fsync policy, deterministic replay on startup, and
// compaction that folds cold segments into session.Manager snapshots plus
// trimmed tails.
//
// Ground-truth labels are bought from a crowd or expert oracle, so losing
// them to a crash means paying the oracle twice. The session subsystem is a
// deterministic state machine (seeded draws; the instrumental distribution
// is a pure function of past labels), so the journal records the operation
// sequence and recovery re-executes it through the same code paths the live
// server ran: the recovered sampler state — posteriors, estimator sums,
// random stream, availability — is bit-for-bit the state at the last
// journaled event, and it continues the exact proposal sequence (see
// TestRecoveryContinuesExactly and the kill-9 end-to-end test in
// cmd/oasis-server).
//
// The journal is sharded into per-shard lanes, mirroring the session
// manager's shards: a session's records all land in the lane its ID hashes
// to, each lane appends under its own lock to its own segment stream, and
// per-append fsyncs only barrier their lane — so commits on sessions in
// different shards never queue behind one writer or one fsync. Because
// sessions are independent samplers, per-lane order is all the order there
// is: recovery replays lanes concurrently and the result is identical for
// any shard count (TestShardedReplayEquivalence pins that down).
//
// Layout of the WAL directory (format version 2):
//
//	wal-meta.json              format version and fixed lane count
//	wal-<lane>-<n>.log         append-only record segments of one lane,
//	                           rotated by size and on boot
//	snap-<lane>-<n>.json       per-lane compaction snapshot folding every
//	                           segment of that lane with index < n
//
// This is the only format Open reads. A pre-lane (version 1) file — an
// un-lane-qualified wal-<n>.log or snap-<n>.json — makes Open fail with an
// "unsupported journal format" error before it writes anything, whether or
// not wal-meta.json is present: treating such a directory as fresh would
// drop the labels it holds.
//
// Torn or truncated final records — a crash mid-write — are detected by CRC,
// dropped, and the tail truncated; damage anywhere else is fatal. A commit
// is acknowledged only after its record is appended (and, under
// -fsync always, synced), so an acknowledged label is never lost by kill -9;
// see the fsync policy trade-offs on Options.
package wal

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"oasis/internal/session"
)

// Options configures a Journal.
type Options struct {
	// Fsync selects the durability policy:
	//
	//	"always"  fsync before acknowledging every label-affecting event —
	//	          commit, create, delete — (default); propose/release
	//	          records ride on the next such barrier, which losing is
	//	          exactly the lease-drop contract. An acknowledged label
	//	          survives kill -9 and power loss. Slowest: one fsync per
	//	          propose/commit round trip — but the fsync only barriers
	//	          the session's own lane, so commits in other shards
	//	          proceed concurrently.
	//	interval  a Go duration such as "100ms": appends are write(2)s and a
	//	          background flusher fsyncs every lane on that interval.
	//	          Kill -9 loses nothing (the page cache survives the
	//	          process); power loss can lose up to one interval of
	//	          acknowledged labels.
	//	"off"     never fsync explicitly. Same kill-9 safety as interval
	//	          (every append is still a write(2)); power loss can lose
	//	          whatever the OS had not written back.
	Fsync string
	// SegmentBytes rotates a lane's active segment once it exceeds this
	// size; 0 means 8 MiB.
	SegmentBytes int64
	// Metrics, when set, records append/fsync latency histograms and the
	// rotation count (see NewMetrics). Nil disables the timing entirely.
	Metrics *Metrics
}

// DefaultSegmentBytes is the rotation threshold when Options.SegmentBytes
// is zero.
const DefaultSegmentBytes = 8 << 20

// ErrClosed is returned by Append after Close. The manager is expected to
// stop serving before the journal closes, but an in-flight request that
// races the shutdown deserves an error, not a crash.
var ErrClosed = errors.New("wal: journal is closed")

// LaneStats is one journal lane's slice of the counters.
type LaneStats struct {
	// Lane is the lane index — equal to the session-manager shard whose
	// sessions it journals.
	Lane int `json:"lane"`
	// Segments counts the lane's live segment files; ActiveSegment is the
	// index the lane is appending to.
	Segments      int    `json:"segments"`
	ActiveSegment uint64 `json:"activeSegment"`
	// RecordsAppended / BytesAppended / Syncs count appends since Open.
	RecordsAppended uint64 `json:"recordsAppended"`
	BytesAppended   uint64 `json:"bytesAppended"`
	Syncs           uint64 `json:"syncs"`
	// LastLSN is the lane's most recently assigned log sequence number.
	LastLSN uint64 `json:"lastLSN"`
}

// Stats is a snapshot of the journal's counters, exposed by the server's
// /v1/stats endpoint. The top-level counters aggregate every lane; Lanes
// breaks them down per shard.
type Stats struct {
	// Lanes is the journal's fixed lane count (the shard count it was
	// created with).
	LaneCount int `json:"laneCount"`
	// Segments counts live segment files across all lanes; ActiveSegment is
	// the index lane 0 is appending to (kept for single-lane dashboards —
	// see Lanes for the rest).
	Segments      int    `json:"segments"`
	ActiveSegment uint64 `json:"activeSegment"`
	// RecordsAppended / BytesAppended / Syncs count appends since Open.
	RecordsAppended uint64 `json:"recordsAppended"`
	BytesAppended   uint64 `json:"bytesAppended"`
	Syncs           uint64 `json:"syncs"`
	// Compactions counts successful per-shard compactions since Open.
	Compactions uint64 `json:"compactions"`
	// LastLSN is the highest log sequence number assigned by any lane.
	LastLSN uint64 `json:"lastLSN"`
	// Replay* describe the recovery that Open performed: events applied,
	// events skipped (already folded into a snapshot, or for sessions
	// deleted later in the log), and torn tail bytes dropped.
	ReplayApplied   uint64 `json:"replayApplied"`
	ReplaySkipped   uint64 `json:"replaySkipped"`
	ReplayTornBytes int    `json:"replayTornBytes"`
	ReplaySnapshot  bool   `json:"replaySnapshot"`
	ReplaySegments  int    `json:"replaySegments"`
	// Lanes is the per-lane breakdown.
	Lanes []LaneStats `json:"lanes,omitempty"`
}

// lane is one shard's journal stream: its own lock, file, segment counter
// and LSN sequence. Appends to different lanes never contend.
type lane struct {
	idx int

	// compactMu serialises compactions of this lane; held across the whole
	// rotate/barrier/snapshot/trim sequence so two overlapping CompactShard
	// calls (a periodic sweep racing an explicit one, say) cannot interleave
	// their boundaries.
	compactMu sync.Mutex

	mu       sync.Mutex
	f        *os.File
	seg      uint64 // active segment index
	oldest   uint64 // first live segment index (segments below it are folded)
	snapAt   uint64 // boundary of the lane's newest snapshot (0: none)
	segSize  int64
	segCount int
	lsn      uint64
	buf      []byte // scratch frame buffer, reused across appends

	records uint64
	bytes   uint64
	syncs   uint64
}

// Journal is the durable event log. It implements session.Journal: the
// session layer appends every state-changing event before acknowledging it,
// and the journal routes it to the lane of the session's shard. All methods
// are safe for concurrent use. Failures are sticky and journal-wide — after
// one failed append or sync on any lane every later Append fails and Err
// reports the cause — so the service fail-stops instead of acknowledging
// labels the log does not hold.
type Journal struct {
	dir  string
	mgr  *session.Manager
	opts Options

	always   bool          // fsync per label-affecting append
	interval time.Duration // background fsync interval (0: none)
	met      *Metrics      // nil: no latency instrumentation

	lanes []*lane

	// The sticky failure and the record cap are atomics, not mutex state:
	// every append on every lane reads both, and a shared lock there would
	// re-serialise the hot path the lanes exist to unshare. err is
	// write-once (the first failure wins); maxRec is fixed after Open and
	// lowered only by tests.
	err    atomic.Pointer[error]
	maxRec atomic.Int64

	// mu guards the journal-wide cold state: the compaction counter and the
	// replay report. Lock ordering: a lane's mu may be held while taking
	// j.mu, so j.mu must never be held while taking a lane's mu.
	mu          sync.Mutex
	compactions uint64
	replay      replayInfo

	stop chan struct{}
	done chan struct{}
}

// replayInfo captures what Open's recovery did, aggregated across lanes.
type replayInfo struct {
	applied   uint64
	skipped   uint64
	tornBytes int
	snapshot  bool
	segments  int
}

// parseFsync resolves Options.Fsync.
func parseFsync(s string) (always bool, interval time.Duration, err error) {
	switch s {
	case "", "always":
		return true, 0, nil
	case "off":
		return false, 0, nil
	default:
		d, err := time.ParseDuration(s)
		if err != nil || d <= 0 {
			return false, 0, fmt.Errorf("wal: fsync policy must be \"always\", \"off\" or a positive duration, got %q", s)
		}
		return false, d, nil
	}
}

// Open recovers the WAL in dir into mgr and returns a journal with one lane
// per manager shard, each appending to a fresh segment. Recovery loads each
// lane's newest compaction snapshot (if any), replays the lanes' remaining
// segments concurrently — skipping events the snapshots already folded —
// truncates torn tails, drops every outstanding lease (the crash reading of
// the lease contract, made durable by per-lane restart records), and
// finally attaches itself to mgr with SetJournal so live operations are
// journaled from here on. A directory holding a pre-lane (v1) file is
// refused unread and untouched. The lane count is fixed when the journal is
// created: reopening with a different manager shard count is an error.
// mgr must not be serving traffic yet.
func Open(dir string, mgr *session.Manager, opts Options) (*Journal, error) {
	if mgr == nil {
		return nil, fmt.Errorf("wal: nil session manager")
	}
	always, interval, err := parseFsync(opts.Fsync)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	j := &Journal{
		dir:      dir,
		mgr:      mgr,
		opts:     opts,
		always:   always,
		interval: interval,
		met:      opts.Metrics,
		lanes:    make([]*lane, mgr.Shards()),
	}
	j.maxRec.Store(maxRecordSize)
	for i := range j.lanes {
		j.lanes[i] = &lane{idx: i}
	}

	inv, err := readDirState(dir)
	if err != nil {
		return nil, err
	}
	switch {
	case inv.meta == nil:
		// Lane segments without the meta marker mean someone deleted
		// wal-meta.json from a live journal; refusing beats guessing the
		// lane count.
		if len(inv.laneSegs) > 0 || len(inv.laneSnaps) > 0 {
			return nil, fmt.Errorf("wal: %s is missing but lane files exist; the journal's lane count is unrecoverable", metaName)
		}
		// A fresh directory: stamp the format before writing anything else.
		if err := j.writeMeta(); err != nil {
			return nil, err
		}
	default:
		if inv.meta.Version != recordVersion {
			return nil, fmt.Errorf("wal: unsupported journal format version %d", inv.meta.Version)
		}
		if inv.meta.Lanes != len(j.lanes) {
			return nil, fmt.Errorf("wal: journal has %d lanes but the manager has %d shards; a session's records all live in one lane, so an existing journal cannot be re-sharded — reopen with -shards %d",
				inv.meta.Lanes, len(j.lanes), inv.meta.Lanes)
		}
		for ln := range inv.laneSegs {
			if ln >= len(j.lanes) {
				return nil, fmt.Errorf("wal: segment for lane %d in a %d-lane journal", ln, len(j.lanes))
			}
		}
		for ln := range inv.laneSnaps {
			if ln >= len(j.lanes) {
				return nil, fmt.Errorf("wal: snapshot for lane %d in a %d-lane journal", ln, len(j.lanes))
			}
		}
		if err := j.recoverLanes(mgr, inv); err != nil {
			return nil, err
		}
	}

	// A replayed create whose pool reference failed to resolve is parked,
	// not fatal, because a later delete in the log absolves it (the pool was
	// legitimately removed after its last session died). Anything still
	// parked now is a live session whose pool is genuinely missing or
	// corrupt: refuse the boot deterministically.
	if err := mgr.UnresolvedReplayCreates(); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}

	// Resume every lane's LSN sequence above everything seen anywhere:
	// cross-lane LSNs are never compared, but per-session watermarks must
	// stay below every future LSN, and a snapshot-restored watermark can sit
	// above its lane's replayed tail (the segments after a compaction may be
	// empty).
	maxLSN := mgr.MaxJournalLSN()
	for _, ln := range j.lanes {
		if ln.lsn > maxLSN {
			maxLSN = ln.lsn
		}
	}
	for _, ln := range j.lanes {
		ln.lsn = maxLSN
		// The fresh boot segment must sort after the lane's snapshot
		// boundary, or a later recovery would skip it as folded.
		if ln.snapAt > ln.seg {
			ln.seg = ln.snapAt
		}
		if err := j.rotateLane(ln); err != nil {
			return nil, err
		}
	}

	// The boot barrier: drop every outstanding lease in memory and append a
	// restart record to every lane so the drop replays per shard — later
	// recoveries see the same availability this process does, lane by lane.
	if _, err := mgr.ReplayEvent(&session.Event{Type: session.EventRestart}); err != nil {
		return nil, err
	}
	for _, ln := range j.lanes {
		ln.mu.Lock()
		_, err := j.appendLane(ln, &session.Event{Type: session.EventRestart})
		ln.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	mgr.SetJournal(j)

	if j.interval > 0 {
		j.stop = make(chan struct{})
		j.done = make(chan struct{})
		go j.syncLoop()
	}
	return j, nil
}

// DirLanes reports the lane count recorded in an existing WAL directory's
// meta file — what a manager must be sharded to before Open will accept the
// directory. It returns 0 for a directory without one, where the caller is
// free to pick (Open then stamps a fresh directory, and refuses a pre-lane
// one whatever the count): oasis-server uses it so an unset -shards
// adopts an existing journal's lane count instead of re-deriving one from
// the hardware (which may have changed since the journal was created).
func DirLanes(dir string) (int, error) {
	data, err := os.ReadFile(filepath.Join(dir, metaName))
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("wal: read %s: %w", metaName, err)
	}
	var m metaFile
	if err := json.Unmarshal(data, &m); err != nil {
		return 0, fmt.Errorf("wal: %s: %w", metaName, err)
	}
	return m.Lanes, nil
}

// dirState is the inventory of a WAL directory.
type dirState struct {
	meta      *metaFile
	laneSegs  map[int][]uint64
	laneSnaps map[int][]uint64
	// laneDataSegs counts lane segment files with at least one byte — the
	// signal for the missing-lane check (a lane that lost its files while
	// sibling lanes still hold records must be rejected, never silently
	// replayed around).
	laneDataSegs int
}

// readDirState enumerates the directory: meta file and per-lane segment and
// snapshot indices, each sorted ascending. A pre-lane (v1) segment or
// snapshot name fails it with the unsupported-format error, so Open refuses
// the directory before writing anything.
func readDirState(dir string) (dirState, error) {
	st := dirState{laneSegs: make(map[int][]uint64), laneSnaps: make(map[int][]uint64)}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return st, fmt.Errorf("wal: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if name == metaName {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				return st, fmt.Errorf("wal: read %s: %w", metaName, err)
			}
			var m metaFile
			if err := json.Unmarshal(data, &m); err != nil {
				return st, fmt.Errorf("wal: %s: %w", metaName, err)
			}
			if m.Lanes < 1 || m.Lanes > session.MaxShards {
				return st, fmt.Errorf("wal: %s declares %d lanes, outside [1, %d]", metaName, m.Lanes, session.MaxShards)
			}
			// writeMeta only ever records a normalized (power-of-two) shard
			// count, and the manager normalizes every -shards value the same
			// way — so a non-power-of-two lane count is unsatisfiable by any
			// flag and must be called out as corruption, not echoed back as
			// a "reopen with -shards 3" dead-end.
			if m.Lanes != session.NormalizeShards(m.Lanes) {
				return st, fmt.Errorf("wal: %s declares %d lanes, which is not a power of two; the meta file is corrupt", metaName, m.Lanes)
			}
			st.meta = &m
			continue
		}
		if lane, idx, ok := parseLaneIndexed(name, segmentPrefix, segmentSuffix); ok {
			st.laneSegs[lane] = append(st.laneSegs[lane], idx)
			if info, err := e.Info(); err == nil && info.Size() > 0 {
				st.laneDataSegs++
			}
			continue
		}
		if lane, idx, ok := parseLaneIndexed(name, snapshotPrefix, snapshotSuffix); ok {
			st.laneSnaps[lane] = append(st.laneSnaps[lane], idx)
			continue
		}
		if isV1Name(name) {
			return st, fmt.Errorf("wal: unsupported journal format: %s is a v1 (pre-lane) file", name)
		}
	}
	for _, s := range st.laneSegs {
		sort.Slice(s, func(i, k int) bool { return s[i] < s[k] })
	}
	for _, s := range st.laneSnaps {
		sort.Slice(s, func(i, k int) bool { return s[i] < s[k] })
	}
	return st, nil
}

// snapshotEnvelope is the on-disk form of a per-lane compaction snapshot:
// always version 2, always carrying the lane it folds.
type snapshotEnvelope struct {
	Version  int             `json:"version"`
	Lane     *int            `json:"lane,omitempty"`
	Sessions json.RawMessage `json:"sessions"` // session.Manager snapshot payload
}

// writeMeta stamps the directory with the journal's format version and lane
// count, atomically.
func (j *Journal) writeMeta() error {
	data, err := json.Marshal(metaFile{Version: recordVersion, Lanes: len(j.lanes)})
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := WriteFileAtomic(filepath.Join(j.dir, metaName), data, 0o644); err != nil {
		return fmt.Errorf("wal: write %s: %w", metaName, err)
	}
	return nil
}

// recoverLanes replays every lane concurrently into mgr. Lanes hold
// disjoint shards' sessions, so the replays commute; the merge is by
// (lane, LSN) — per-lane order is preserved by the sequential scan, and no
// cross-lane order exists to preserve.
func (j *Journal) recoverLanes(mgr *session.Manager, inv dirState) error {
	// The missing-lane check: once the journal has ever carried state — a
	// segment with bytes anywhere, or any lane snapshot (compaction only
	// runs on a booted journal) — every lane's files exist, because boot
	// creates them all. A lane with no segments past that point means the
	// lane's files were deleted — reject, never silently merge a partial
	// journal. (Only a crash during the very first boot, before any record
	// or snapshot exists, legitimately leaves lanes without files.)
	if inv.laneDataSegs > 0 || len(inv.laneSnaps) > 0 {
		for _, ln := range j.lanes {
			if len(inv.laneSegs[ln.idx]) == 0 {
				return fmt.Errorf("wal: lane %d has no segments while other lanes hold records or snapshots; the journal is missing a lane", ln.idx)
			}
		}
	}
	// Bounded fan-out: each in-flight lane holds one full segment in memory,
	// so cap the workers at the core count instead of reading (up to) 256
	// segment files at once on a freshly-crashed, possibly memory-pressured
	// machine.
	workers := min(len(j.lanes), runtime.GOMAXPROCS(0))
	errs := make([]error, len(j.lanes))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				idx := int(next.Add(1)) - 1
				if idx >= len(j.lanes) {
					return
				}
				ln := j.lanes[idx]
				errs[idx] = j.recoverLane(mgr, ln, inv.laneSegs[idx], inv.laneSnaps[idx])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// recoverLane replays one lane: newest lane snapshot, then the remaining
// lane segments in order. Only a torn suffix of the lane's newest segment is
// recoverable.
func (j *Journal) recoverLane(mgr *session.Manager, ln *lane, segs, snaps []uint64) error {
	var fold uint64
	var applied, skipped uint64
	var tornBytes, replayedSegs int
	sawSnapshot := false
	if n := len(snaps); n > 0 {
		fold = snaps[n-1]
		path := filepath.Join(j.dir, snapshotName(ln.idx, fold))
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("wal: read snapshot: %w", err)
		}
		var env snapshotEnvelope
		if err := json.Unmarshal(data, &env); err != nil {
			return fmt.Errorf("wal: snapshot %s: %w", path, err)
		}
		if env.Version != 2 || env.Lane == nil || *env.Lane != ln.idx {
			return fmt.Errorf("wal: snapshot %s: version %d, lane %v — want version 2 for lane %d", path, env.Version, env.Lane, ln.idx)
		}
		if err := mgr.RestoreReplay(env.Sessions); err != nil {
			return fmt.Errorf("wal: snapshot %s: %w", path, err)
		}
		sawSnapshot = true
	}

	var maxLSN uint64
	for i, idx := range segs {
		if idx < fold {
			continue // folded into the lane snapshot
		}
		path := filepath.Join(j.dir, segmentName(ln.idx, idx))
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("wal: read segment: %w", err)
		}
		replayedSegs++
		consumed, torn, err := scanRecords(data, len(j.lanes), func(shard int, payload []byte) error {
			if shard != ln.idx {
				return fmt.Errorf("record tagged lane %d in lane %d's segment", shard, ln.idx)
			}
			var ev session.Event
			if err := json.Unmarshal(payload, &ev); err != nil {
				return fmt.Errorf("bad event: %w", err)
			}
			if ev.LSN > maxLSN {
				maxLSN = ev.LSN
			}
			if ev.Type == session.EventRestart {
				// A per-lane boot barrier: drop this shard's leases only, so
				// concurrent lane replays stay within their shard.
				mgr.ReplayShardRestart(ln.idx)
				applied++
				return nil
			}
			if ev.Session != "" && mgr.ShardFor(ev.Session) != ln.idx {
				return fmt.Errorf("event for session %q (shard %d) in lane %d", ev.Session, mgr.ShardFor(ev.Session), ln.idx)
			}
			ok, err := mgr.ReplayEvent(&ev)
			if err != nil {
				return err
			}
			if ok {
				applied++
			} else {
				skipped++
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("wal: replay %s: %w", path, err)
		}
		if torn {
			// A crash-torn write is always a suffix: damage in any older
			// segment, or damage followed by further valid records, is real
			// mid-log corruption — refusing to boot beats silently truncating
			// acknowledged commits away.
			if i != len(segs)-1 || hasValidRecordAfter(data[consumed:]) {
				return fmt.Errorf("wal: segment %s is corrupt mid-log (%d clean bytes of %d); only a trailing torn record is recoverable", path, consumed, len(data))
			}
			// A crash mid-write: drop the torn suffix and truncate durably so
			// a power cut cannot resurrect it after this boot appends more.
			tornBytes = len(data) - consumed
			if err := truncateDurable(path, int64(consumed), j.dir); err != nil {
				return fmt.Errorf("wal: truncate torn tail of %s: %w", path, err)
			}
		}
	}
	ln.lsn = maxLSN
	ln.snapAt = fold
	if n := len(segs); n > 0 {
		ln.seg = segs[n-1]
		ln.oldest = segs[0]
		ln.segCount = n
	}
	// Snapshots older than the newest are superseded leftovers of a crashed
	// compaction; recovery is the natural place to sweep them.
	for _, idx := range snaps[:max(0, len(snaps)-1)] {
		os.Remove(filepath.Join(j.dir, snapshotName(ln.idx, idx)))
	}
	j.mu.Lock()
	j.replay.applied += applied
	j.replay.skipped += skipped
	j.replay.tornBytes += tornBytes
	j.replay.segments += replayedSegs
	j.replay.snapshot = j.replay.snapshot || sawSnapshot
	j.mu.Unlock()
	return nil
}

// fail records the journal's first error; every later Append reports it.
func (j *Journal) fail(err error) {
	wrapped := fmt.Errorf("wal: %w", err)
	j.err.CompareAndSwap(nil, &wrapped)
}

// errNow returns the sticky failure state.
func (j *Journal) errNow() error {
	if p := j.err.Load(); p != nil {
		return *p
	}
	return nil
}

// rotateLane closes the lane's active segment (if any) and opens the next
// one. Callers hold ln.mu (or, during Open, have exclusive access).
func (j *Journal) rotateLane(ln *lane) error {
	if err := j.errNow(); err != nil {
		return err
	}
	rotated := ln.f != nil // opening the first segment is not a rotation
	if ln.f != nil {
		if err := ln.f.Sync(); err != nil {
			j.fail(err)
			return j.errNow()
		}
		if err := ln.f.Close(); err != nil {
			j.fail(err)
			return j.errNow()
		}
		ln.f = nil
	}
	ln.seg++
	f, err := os.OpenFile(filepath.Join(j.dir, segmentName(ln.idx, ln.seg)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		j.fail(err)
		return j.errNow()
	}
	if err := syncDir(j.dir); err != nil {
		f.Close()
		j.fail(err)
		return j.errNow()
	}
	ln.f = f
	ln.segSize = 0
	ln.segCount++
	if ln.oldest == 0 {
		ln.oldest = ln.seg
	}
	if rotated && j.met != nil {
		j.met.Rotations.Inc()
	}
	return nil
}

// segmentBytes returns the rotation threshold.
func (j *Journal) segmentBytes() int64 {
	if j.opts.SegmentBytes > 0 {
		return j.opts.SegmentBytes
	}
	return DefaultSegmentBytes
}

// Append durably records ev (per the fsync policy) in the lane of the
// session's shard, assigning and returning its per-lane log sequence
// number. It implements session.Journal. Appends for sessions in different
// shards run concurrently; only same-shard appends serialise.
func (j *Journal) Append(ev *session.Event) (uint64, error) {
	ln := j.lanes[0]
	if ev.Session != "" {
		ln = j.lanes[j.mgr.ShardFor(ev.Session)]
	}
	ln.mu.Lock()
	defer ln.mu.Unlock()
	return j.appendLane(ln, ev)
}

// appendLane appends ev to ln. Callers hold ln.mu. The only journal-wide
// state it touches — the sticky error and the record cap — is atomic, so
// appends on different lanes share no lock.
func (j *Journal) appendLane(ln *lane, ev *session.Event) (uint64, error) {
	var start time.Time
	if j.met != nil {
		start = time.Now()
	}
	// Traced requests carry their trace on the event (never journaled): the
	// append span covers marshal+write+fsync, with the fsync — the
	// durability tax — as a nested child so timelines show which of the two
	// dominated. Unsampled requests carry nil and both Starts are free.
	asp := ev.Trace.Start("wal", "wal.append").AttrInt("lane", int64(ln.idx))
	defer asp.End()
	if err := j.errNow(); err != nil {
		return 0, err
	}
	// A clean Close leaves no sticky error but does nil the lane files; an
	// append racing shutdown gets an error, not a nil dereference.
	if ln.f == nil {
		return 0, ErrClosed
	}
	maxRec := int(j.maxRec.Load())
	if ln.segSize >= j.segmentBytes() {
		if err := j.rotateLane(ln); err != nil {
			return 0, err
		}
	}
	ev.LSN = ln.lsn + 1
	payload, err := json.Marshal(ev)
	if err != nil {
		// Same carve-out as the size check below: an unmarshalable create (a
		// NaN in the config, say) wrote nothing and the session layer holds no
		// state for it, so it is a per-request error, not a service fail-stop.
		if ev.Type == session.EventCreate {
			return 0, fmt.Errorf("wal: marshal create: %w", err)
		}
		j.fail(err)
		return 0, j.errNow()
	}
	// Enforce the framing cap before writing: an oversized frame would be
	// acknowledged now but classified as torn or corrupt by replay — an
	// acknowledged record silently truncated away, or a log that refuses to
	// boot. Nothing is written either way, but the failure mode differs by
	// event type. A create is appended before the session layer holds any
	// state for it, so rejecting it is a per-request error (one hostile
	// oversized pool must not fail-stop the whole service). Every other type
	// is appended after the session applied the event in memory; there the
	// in-memory state is already ahead of the log, and the sticky fail-stop
	// of the session.Journal contract is the only safe answer.
	if len(payload) > maxRec {
		if ev.Type == session.EventCreate {
			return 0, fmt.Errorf("wal: create payload is %d bytes, over the %d-byte record cap", len(payload), maxRec)
		}
		j.fail(fmt.Errorf("event payload is %d bytes, over the %d-byte record cap", len(payload), maxRec))
		return 0, j.errNow()
	}
	ln.buf = appendRecord(ln.buf[:0], ln.idx, payload)
	if _, err := ln.f.Write(ln.buf); err != nil {
		j.fail(err)
		return 0, j.errNow()
	}
	if j.always && syncedEvent(ev.Type) {
		var syncStart time.Time
		if j.met != nil {
			syncStart = time.Now()
		}
		fsp := ev.Trace.Start("wal", "wal.fsync").AttrInt("lane", int64(ln.idx))
		err := ln.f.Sync()
		fsp.End()
		if err != nil {
			j.fail(err)
			return 0, j.errNow()
		}
		if j.met != nil {
			j.met.SyncSeconds.Observe(time.Since(syncStart).Seconds())
		}
		ln.syncs++
	}
	ln.lsn++
	ln.segSize += int64(len(ln.buf))
	ln.records++
	ln.bytes += uint64(len(ln.buf))
	if j.met != nil {
		j.met.AppendSeconds.Observe(time.Since(start).Seconds())
	}
	return ln.lsn, nil
}

// syncedEvent reports whether the "always" policy must fsync after this
// event. Only acknowledgements that promise durability need the barrier:
// label commits, creations and deletions. Losing an unsynced
// propose/release/restart suffix to a power cut is exactly the lease-drop
// contract (the pairs become proposable again), and an fsync at the next
// commit persists every earlier record of the lane's segment anyway —
// record order within the file means a commit can never be durable without
// its propose. Skipping the barrier on proposals halves the per-round fsync
// tax.
func syncedEvent(t session.EventType) bool {
	switch t {
	case session.EventCommit, session.EventCreate, session.EventDelete:
		return true
	}
	return false
}

// Err reports the sticky failure state; nil while the journal is healthy.
// It implements session.Journal.
func (j *Journal) Err() error { return j.errNow() }

// Sync flushes every lane's active segment to stable storage.
func (j *Journal) Sync() error {
	for _, ln := range j.lanes {
		ln.mu.Lock()
		err := j.syncLane(ln)
		ln.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// syncLane fsyncs one lane. Callers hold ln.mu.
func (j *Journal) syncLane(ln *lane) error {
	if err := j.errNow(); err != nil {
		return err
	}
	if ln.f == nil {
		return nil
	}
	var start time.Time
	if j.met != nil {
		start = time.Now()
	}
	if err := ln.f.Sync(); err != nil {
		j.fail(err)
		return j.errNow()
	}
	if j.met != nil {
		j.met.SyncSeconds.Observe(time.Since(start).Seconds())
	}
	ln.syncs++
	return nil
}

// syncLoop is the background flusher of the interval fsync policy. It runs
// under a pprof goroutine label so CPU profiles attribute the flush fsyncs
// to the WAL rather than to an anonymous goroutine (per-lane attribution
// for request-path fsyncs comes from the shard labels the HTTP layer sets;
// this loop syncs every lane in turn).
func (j *Journal) syncLoop() {
	pprof.Do(context.Background(), pprof.Labels("goroutine", "wal-sync"), func(context.Context) {
		t := time.NewTicker(j.interval)
		defer t.Stop()
		for {
			select {
			case <-j.stop:
				close(j.done)
				return
			case <-t.C:
				j.Sync()
			}
		}
	})
}

// CompactShard folds everything before one lane's active segment into an
// atomic per-lane snapshot and deletes the folded lane segments and
// superseded lane snapshots. It first rotates the lane to a fresh segment,
// then snapshots the shard: every event in the old segments is therefore
// covered by the snapshot, and the few events appended between rotation and
// snapshot are both in the snapshot and in the tail — replay skips them by
// their per-session LSN watermark. Between the two it waits on the shard's
// create barrier: a Create whose record went into a now-folded segment may
// not have registered its session yet, and snapshotting before it does
// would lose the session when the folded segment is deleted. Safe to run
// concurrently with serving traffic — and with compactions of other shards.
func (j *Journal) CompactShard(shard int) error {
	if shard < 0 || shard >= len(j.lanes) {
		return fmt.Errorf("wal: compact: no shard %d in a %d-lane journal", shard, len(j.lanes))
	}
	ln := j.lanes[shard]
	ln.compactMu.Lock()
	defer ln.compactMu.Unlock()
	ln.mu.Lock()
	if err := j.errNow(); err != nil {
		ln.mu.Unlock()
		return err
	}
	// A closed journal must not be quietly resurrected: rotateLane would
	// read ln.f == nil as "no active segment yet" and open a fresh one.
	if ln.f == nil {
		ln.mu.Unlock()
		return ErrClosed
	}
	// An idle lane has nothing to fold: the active segment is empty, no
	// older segments await removal, and the lane's newest snapshot already
	// sits at the active boundary (every shard mutation appends here, so an
	// untouched segment means an unchanged shard). Skipping keeps a periodic
	// compaction sweep from rotating segments and re-serialising identical
	// snapshots for every quiet shard on every tick.
	if ln.segSize == 0 && ln.oldest == ln.seg && ln.snapAt == ln.seg {
		ln.mu.Unlock()
		return nil
	}
	if err := j.rotateLane(ln); err != nil {
		ln.mu.Unlock()
		return err
	}
	boundary := ln.seg
	oldest := ln.oldest
	prevSnap := ln.snapAt
	ln.mu.Unlock()

	j.mgr.ShardCreateBarrier(shard)
	data, err := j.mgr.SnapshotShard(shard)
	if err != nil {
		return fmt.Errorf("wal: compact: %w", err)
	}
	env, err := json.Marshal(snapshotEnvelope{Version: 2, Lane: &shard, Sessions: data})
	if err != nil {
		return fmt.Errorf("wal: compact: %w", err)
	}
	if err := WriteFileAtomic(filepath.Join(j.dir, snapshotName(shard, boundary)), env, 0o644); err != nil {
		return fmt.Errorf("wal: compact: %w", err)
	}

	// The snapshot is durable; the folded lane segments and the superseded
	// lane snapshot can go. The lane tracks its own live range, so no
	// directory listing is needed. Removal failures are not fatal — replay
	// skips folded segments, and recovery sweeps stale snapshots — but
	// oldest only advances past segments that are actually gone, so the next
	// compaction's sweep retries stragglers instead of orphaning them until
	// a restart re-derives the range from the directory.
	removed := 0
	newOldest := boundary
	for idx := oldest; idx < boundary; idx++ {
		err := os.Remove(filepath.Join(j.dir, segmentName(shard, idx)))
		switch {
		case err == nil:
			removed++
		case errors.Is(err, os.ErrNotExist):
			// Already gone: swept by an earlier retry whose own failure held
			// oldest back. Nothing live, nothing to recount.
		default:
			if newOldest == boundary {
				newOldest = idx
			}
		}
	}
	if prevSnap > 0 && prevSnap < boundary {
		os.Remove(filepath.Join(j.dir, snapshotName(shard, prevSnap)))
	}
	ln.mu.Lock()
	ln.segCount -= removed
	ln.oldest = newOldest
	ln.snapAt = boundary
	ln.mu.Unlock()
	j.mu.Lock()
	j.compactions++
	j.mu.Unlock()
	return nil
}

// Compact runs CompactShard over every shard in turn.
func (j *Journal) Compact() error {
	for shard := range j.lanes {
		if err := j.CompactShard(shard); err != nil {
			return err
		}
	}
	return nil
}

// Close flushes and closes every lane. The manager should have stopped
// serving first.
func (j *Journal) Close() error {
	if j.stop != nil {
		select {
		case <-j.done:
		default:
			close(j.stop)
			<-j.done
		}
		j.stop = nil
	}
	var firstErr error
	for _, ln := range j.lanes {
		ln.mu.Lock()
		if ln.f != nil {
			err := j.syncLane(ln)
			if cerr := ln.f.Close(); cerr != nil && err == nil {
				err = cerr
			}
			ln.f = nil
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
		ln.mu.Unlock()
	}
	if firstErr != nil {
		return firstErr
	}
	return j.errNow()
}

// Stats returns a snapshot of the journal's counters, aggregated and per
// lane.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	st := Stats{
		LaneCount:       len(j.lanes),
		Compactions:     j.compactions,
		ReplayApplied:   j.replay.applied,
		ReplaySkipped:   j.replay.skipped,
		ReplayTornBytes: j.replay.tornBytes,
		ReplaySnapshot:  j.replay.snapshot,
		ReplaySegments:  j.replay.segments,
	}
	j.mu.Unlock()
	st.Lanes = make([]LaneStats, len(j.lanes))
	for i, ln := range j.lanes {
		ln.mu.Lock()
		st.Lanes[i] = LaneStats{
			Lane:            ln.idx,
			Segments:        ln.segCount,
			ActiveSegment:   ln.seg,
			RecordsAppended: ln.records,
			BytesAppended:   ln.bytes,
			Syncs:           ln.syncs,
			LastLSN:         ln.lsn,
		}
		ln.mu.Unlock()
		st.Segments += st.Lanes[i].Segments
		st.RecordsAppended += st.Lanes[i].RecordsAppended
		st.BytesAppended += st.Lanes[i].BytesAppended
		st.Syncs += st.Lanes[i].Syncs
		if st.Lanes[i].LastLSN > st.LastLSN {
			st.LastLSN = st.Lanes[i].LastLSN
		}
	}
	st.ActiveSegment = st.Lanes[0].ActiveSegment
	return st
}
