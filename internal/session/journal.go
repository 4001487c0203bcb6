package session

import (
	"errors"
	"fmt"
	"sync"

	"oasis"
	"oasis/internal/trace"
)

// This file defines the durable journal contract between the session layer
// and the write-ahead log (internal/wal). The session subsystem is a
// deterministic state machine — every sampler draw comes from an explicitly
// seeded stream, and the instrumental distribution is a pure function of the
// committed labels (Delyon & Portier's adaptive-IS structure) — so recording
// the operation sequence is enough to rebuild the exact state: recovery
// replays each event through the same code path the live server ran and
// lands, bit-for-bit, on the state at the last journaled event.

// EventType enumerates the journaled session lifecycle events.
type EventType string

const (
	// EventCreate registers a session; Config carries the full pool and
	// options (seed included) so replay rebuilds an identical sampler.
	EventCreate EventType = "create"
	// EventPropose records one ProposeBatch: the clamped batch size and the
	// drawn pairs. Replay re-executes the draws and verifies they match.
	EventPropose EventType = "propose"
	// EventCommit records the fresh labels of one commit batch together with
	// the frozen draw terms each folded into the estimator.
	EventCommit EventType = "commit"
	// EventRelease records proposals returned to the proposable set (lease
	// expiry). Replay never expires leases by wall clock; it applies exactly
	// the journaled releases.
	EventRelease EventType = "release"
	// EventDelete removes a session.
	EventDelete EventType = "delete"
	// EventRestart marks a server boot. Replaying it drops every outstanding
	// lease — the durable form of the crash contract: a proposal whose label
	// never arrived returns to the proposable set.
	EventRestart EventType = "restart"
)

// CommitRecord journals one fresh label: the pair, its label, and the
// weighted estimator terms applied (the frozen draw that proposed the pair
// plus any re-draws queued while the label was in flight). The terms let
// recovery re-apply the commit even when its propose event was already
// folded into a compaction snapshot.
type CommitRecord struct {
	Pair  int              `json:"pair"`
	Label bool             `json:"label"`
	Terms []oasis.DrawTerm `json:"terms"`
}

// Event is one journaled state change. LSN is the log sequence number the
// journal assigns at append time (per lane, in the sharded WAL); it is
// strictly increasing per session, and snapshots record each session's
// high-water LSN so replay can skip events the snapshot already folded.
type Event struct {
	LSN     uint64         `json:"lsn"`
	Type    EventType      `json:"type"`
	Session string         `json:"session,omitempty"`
	Config  *Config        `json:"config,omitempty"`  // EventCreate
	N       int            `json:"n,omitempty"`       // EventPropose: requested (clamped) batch size
	Pairs   []int          `json:"pairs,omitempty"`   // EventPropose results / EventRelease pairs
	Commits []CommitRecord `json:"commits,omitempty"` // EventCommit

	// TS is the wall clock of the event in Unix nanoseconds, currently
	// recorded for EventCommit only: replay stamps the re-recorded
	// diagnostics points with it, so a recovered convergence series is
	// byte-identical to the one the live server held. Omitempty keeps the
	// record format backward compatible — events journaled before the field
	// existed replay with TS zero ("wall time unknown").
	TS int64 `json:"ts,omitempty"`

	// Trace is the request trace the event belongs to, when the request is
	// sampled (nil otherwise, and always nil on replay). It never reaches
	// the log — the WAL reads it to record append/fsync spans and nothing
	// else — so the durable record format is unchanged.
	Trace *trace.Trace `json:"-"`
}

// Journal is the durable sink the Manager appends every state-changing event
// to before acknowledging it. Implementations must be safe for concurrent
// use, must assign LSNs that strictly increase in append order for any one
// session (the production WAL shards its log into per-shard lanes, so LSNs
// are per-lane sequences — a session's events all land in one lane, which
// is all the ordering the per-session watermarks compare), and must make
// failures sticky: once an append fails every later append (and Err) must
// report failure, so the service fail-stops instead of acknowledging labels
// the log does not hold. One carve-out: a create append the journal rejects
// before writing anything (an oversized payload, say) may return a per-call
// error without entering the failure state — the create is the only event
// appended before the session layer holds state for it, so nothing has
// drifted from the log and one bad request need not take the service down.
// internal/wal provides the production implementation.
type Journal interface {
	// Append durably records ev, assigning and returning its LSN.
	Append(ev *Event) (uint64, error)
	// Err reports the sticky failure state; nil while the journal is healthy.
	Err() error
}

// journalHolder shares the manager's journal with its sessions. It is
// populated after WAL replay — wal.Open attaches the journal only once
// recovery is done, so replayed operations are not re-journaled.
type journalHolder struct {
	mu sync.RWMutex
	j  Journal
}

func (h *journalHolder) get() Journal {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.j
}

func (h *journalHolder) set(j Journal) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.j = j
}

// journalLocked appends ev to the attached journal (if any), tagging it with
// the session's ID and recording the assigned LSN. Callers hold s.mu, which
// is what guarantees the journal order matches the session's operation
// order.
func (s *Session) journalLocked(ev *Event) error {
	if s.jrn == nil {
		return nil
	}
	j := s.jrn.get()
	if j == nil {
		return nil
	}
	ev.Session = s.id
	lsn, err := j.Append(ev)
	if err != nil {
		return fmt.Errorf("session: journal append: %w", err)
	}
	s.lastLSN = lsn
	return nil
}

// journaling reports whether a journal is attached (and thus commit terms
// must be materialised).
func (s *Session) journaling() bool {
	return s.jrn != nil && s.jrn.get() != nil
}

// journalSick fails write operations fast once the journal has entered its
// sticky failure state, so in-memory state stops drifting from the log.
func (s *Session) journalSick() error {
	if s.jrn == nil {
		return nil
	}
	j := s.jrn.get()
	if j == nil {
		return nil
	}
	if err := j.Err(); err != nil {
		return fmt.Errorf("session: journal failed, refusing writes: %w", err)
	}
	return nil
}

// replayEvent applies one journaled session event during recovery. Events at
// or below the session's restored LSN watermark were already folded into the
// snapshot and are skipped. Replay never journals and never expires leases
// by wall clock. It returns whether the event was applied.
func (s *Session) replayEvent(ev *Event) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ev.LSN <= s.lastLSN {
		return false, nil
	}
	switch ev.Type {
	case EventPropose:
		pairs, err := s.sampler.ProposeBatch(ev.N)
		if err != nil && !errors.Is(err, oasis.ErrExhausted) {
			return false, fmt.Errorf("session: replay propose: %w", err)
		}
		if len(pairs) != len(ev.Pairs) {
			return false, fmt.Errorf("session: replay propose diverged: drew %d pairs, journal has %d", len(pairs), len(ev.Pairs))
		}
		deadline := s.now().Add(s.leaseTTL)
		for i, pair := range pairs {
			if pair != ev.Pairs[i] {
				return false, fmt.Errorf("session: replay propose diverged at %d: drew pair %d, journal has %d", i, pair, ev.Pairs[i])
			}
			s.leases[pair] = deadline
		}
	case EventCommit:
		for _, cr := range ev.Commits {
			if err := s.sampler.ReplayCommit(cr.Pair, cr.Label, cr.Terms); err != nil {
				return false, fmt.Errorf("session: replay commit: %w", err)
			}
			delete(s.leases, cr.Pair)
		}
		// One diagnostics point per commit event, mirroring the live path
		// (which records one per batch with at least one fresh label — the
		// only batches that journal an EventCommit).
		s.recordDiagLocked(nil, ev.TS, true)
	case EventRelease:
		for _, pair := range ev.Pairs {
			delete(s.leases, pair)
			s.sampler.Release(pair)
		}
	default:
		return false, fmt.Errorf("session: replay: unexpected session event %q", ev.Type)
	}
	s.lastLSN = ev.LSN
	return true, nil
}

// dropAllLeases releases every outstanding proposal — the boot-time reading
// of the lease contract, applied both live at recovery and when replaying an
// EventRestart.
func (s *Session) dropAllLeases() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for pair := range s.leases {
		delete(s.leases, pair)
		s.sampler.Release(pair)
	}
}

// LastLSN returns the LSN of the session's most recent journaled event (0
// when the session has never been journaled).
func (s *Session) LastLSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastLSN
}
