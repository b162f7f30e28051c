// Package replica implements warm-standby replication for the shape
// database: a primary streams committed journal frames over HTTP to a
// standby that replays them into its own store and serves read-only
// queries, with automatic promotion on primary failure.
//
// The design in one paragraph: the journal is already an append-only,
// CRC-framed, fsync-before-ack log, so replication is log shipping of raw
// bytes — the standby's journal is a byte-for-byte prefix of the
// primary's, and progress is a single byte offset scoped by an epoch that
// changes whenever the file's identity does (restart, compaction). Writes
// on the primary are acknowledged only after the standby's next stream
// request attests it has durably applied them (the request's offset IS the
// ack), which is what makes "zero acknowledged-write loss" literal: any
// 2xx insert is on both disks before the client sees it. Failover is
// fencing-token based: the standby promotes after a heartbeat budget of
// silence, first offering the old primary a higher term; a reachable
// primary steps down (one writable node), and an unreachable-but-alive one
// is still harmless because without standby acks its own writes time out
// rather than acknowledge — the sync-ack rule doubles as the split-brain
// guard. A true network partition therefore costs availability on the old
// primary, never acknowledged data (CP, not AP).
package replica

import (
	"context"
	"errors"
	"sync"
	"time"

	"threedess/internal/shapedb"
)

// ErrAckTimeout is returned by WaitAcked when the standby did not attest
// the write within the budget. The write is journaled locally and will
// replicate when the standby returns; the caller should fail the request
// (not acknowledge it) and let the client retry under its idempotency key.
var ErrAckTimeout = errors.New("replica: write not replicated within ack budget")

// ErrAckCanceled is returned by WaitAcked when the request context ended
// before the standby attested the write.
var ErrAckCanceled = errors.New("replica: ack wait canceled")

// Role is a node's current replication role.
type Role int32

const (
	// RoleStandby replays the primary's journal and serves read-only
	// queries; mutating requests are refused with a pointer to the primary.
	RoleStandby Role = iota
	// RolePrimary accepts writes and serves the replication stream.
	RolePrimary
)

func (r Role) String() string {
	if r == RolePrimary {
		return "primary"
	}
	return "standby"
}

// Wire types of the replication protocol (JSON bodies; the stream itself
// is raw journal bytes with offsets in headers).

// StateResponse is GET /api/replication/state: who the node thinks it is
// and where its journal stands.
type StateResponse struct {
	Role      string `json:"role"`
	Term      int64  `json:"term"`
	Epoch     int64  `json:"epoch"`
	Committed int64  `json:"committed"`
	Advertise string `json:"advertise"`
	Primary   string `json:"primary"`
}

// FenceRequest is POST /api/replication/fence: the caller claims the
// primary role at Term, naming Primary as the new write endpoint. A node
// receiving a higher term than its own steps down (or stays standby) and
// accepts; an equal-or-lower term is refused, telling the caller it is
// stale.
type FenceRequest struct {
	Term    int64  `json:"term"`
	Primary string `json:"primary"`
}

// FenceResponse reports whether the fence took and the receiver's
// (possibly newer) term and primary, so a stale caller can resynchronize.
type FenceResponse struct {
	Accepted bool   `json:"accepted"`
	Term     int64  `json:"term"`
	Primary  string `json:"primary"`
}

// Status is the operator view served at /api/admin/replication.
type Status struct {
	Role    string `json:"role"`
	Term    int64  `json:"term"`
	Self    string `json:"self"`
	Primary string `json:"primary"`
	// Standby progress (meaningful when Role == "standby").
	Epoch         int64 `json:"epoch,omitempty"`
	Applied       int64 `json:"applied"`
	Committed     int64 `json:"committed"`
	Lag           int64 `json:"lag"`
	CaughtUp      bool  `json:"caught_up"`
	LastContactMS int64 `json:"last_contact_ms"`
	// StalenessMS bounds how old served reads may be: ms since the standby
	// last observed itself fully caught up (-1 = never; 0 on a primary).
	StalenessMS int64 `json:"staleness_ms"`
	Promotions  int64 `json:"promotions"`
	StepDowns   int64 `json:"step_downs"`
	// Primary-side ack tracking (meaningful when Role == "primary").
	StandbyAttached bool  `json:"standby_attached"`
	AckedOffset     int64 `json:"acked_offset"`
}

// Node is the replication identity and coordination state one process
// carries: its role, fencing term, who it believes the primary is, the
// standby's replay progress (updated by Standby), and the primary-side ack
// watermark (updated by the stream handler, waited on by write handlers).
// All methods are safe for concurrent use.
type Node struct {
	mu      sync.Mutex
	self    string
	role    Role
	term    int64
	primary string

	// Standby replay progress.
	epoch       int64
	applied     int64
	committed   int64
	caughtUp    bool
	lastContact time.Time
	// lastSynced is the last instant the standby observed itself fully
	// caught up with the primary's committed offset. It bounds read
	// staleness: every commit older than lastSynced is applied locally, so
	// data served from this standby is at most time.Since(lastSynced) old.
	lastSynced time.Time
	promotions int64
	stepDowns  int64

	// Primary-side ack watermark: the highest offset (within ackEpoch) a
	// standby has attested durable by requesting the stream from it.
	// attached latches once any standby has connected; until then the
	// primary runs standalone and sync-ack gating is off (there is no
	// standby to fail over to, so waiting would only block bring-up).
	attached bool
	ackEpoch int64
	ackOff   int64
	// ackWake is closed and replaced whenever the watermark moves, waking
	// every WaitAcked.
	ackWake chan struct{}
}

// NewPrimaryNode builds the node state for a process starting as primary,
// advertising self (the URL peers and clients should reach it at).
func NewPrimaryNode(self string) *Node {
	return &Node{self: self, role: RolePrimary, term: 1, primary: self, ackWake: make(chan struct{})}
}

// NewStandbyNode builds the node state for a process starting as standby
// of the primary at the given URL.
func NewStandbyNode(self, primary string) *Node {
	return &Node{self: self, role: RoleStandby, term: 0, primary: primary, ackWake: make(chan struct{})}
}

// Role returns the node's current role.
func (n *Node) Role() Role {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role
}

// Term returns the node's current fencing term.
func (n *Node) Term() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.term
}

// PrimaryURL returns the advertised URL of the node this node believes is
// primary (its own when it is the primary).
func (n *Node) PrimaryURL() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.primary
}

// SelfURL returns the node's own advertised URL.
func (n *Node) SelfURL() string { return n.self }

// Fence applies a peer's claim to the primary role at term. A term above
// the node's own is accepted: a primary steps down to standby (this is the
// fencing that prevents two writable primaries when the nodes can talk),
// a standby re-points at the new primary. An equal-or-lower term is
// refused — the caller is stale and should adopt the returned state.
func (n *Node) Fence(term int64, primary string) FenceResponse {
	n.mu.Lock()
	defer n.mu.Unlock()
	if term <= n.term {
		return FenceResponse{Accepted: false, Term: n.term, Primary: n.primary}
	}
	if n.role == RolePrimary {
		n.role = RoleStandby
		n.stepDowns++
	}
	n.term = term
	n.primary = primary
	return FenceResponse{Accepted: true, Term: n.term, Primary: n.primary}
}

// Promote flips a standby to primary at the given term. It refuses when
// the node is no longer a standby or the term is not an advance (a
// concurrent Fence installed a newer primary while this promotion was in
// flight — the promotion loses).
func (n *Node) Promote(term int64) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role != RoleStandby || term <= n.term {
		return false
	}
	n.role = RolePrimary
	n.term = term
	n.primary = n.self
	n.promotions++
	// A freshly promoted primary has no standby yet: clear the ack state
	// so sync gating re-latches when one attaches.
	n.attached = false
	n.ackEpoch = 0
	n.ackOff = 0
	return true
}

// adoptTerm raises the node's term without changing role, used by the
// standby when it observes a newer term from the primary.
func (n *Node) adoptTerm(term int64, primary string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if term > n.term {
		n.term = term
		if primary != "" {
			n.primary = primary
		}
	}
}

// setProgress records the standby's replay position (called by Standby).
func (n *Node) setProgress(epoch, applied, committed int64, contact bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.epoch = epoch
	n.applied = applied
	n.committed = committed
	if applied >= committed {
		n.caughtUp = true
		if contact {
			// The primary just told us its committed offset and we have
			// applied all of it: our view is current as of this instant.
			n.lastSynced = time.Now()
		}
	}
	if contact {
		n.lastContact = time.Now()
	}
}

// Staleness bounds how old the data this node serves may be. A primary is
// never stale. A standby's bound is the time since it last observed itself
// fully caught up with the primary's committed offset; ok is false when it
// never has (bootstrap or mid-re-bootstrap — nothing can be promised).
func (n *Node) Staleness() (time.Duration, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role == RolePrimary {
		return 0, true
	}
	if n.lastSynced.IsZero() {
		return 0, false
	}
	return time.Since(n.lastSynced), true
}

// markContact refreshes the standby's last-contact clock without touching
// progress (a state poll that carried no new frames).
func (n *Node) markContact() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.lastContact = time.Now()
}

// sinceContact reports how long ago the primary last answered, and whether
// it ever has.
func (n *Node) sinceContact() (time.Duration, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.lastContact.IsZero() {
		return 0, false
	}
	return time.Since(n.lastContact), true
}

// resetCaughtUp clears the caught-up latch (the standby is about to
// re-bootstrap and will be stale until the new snapshot is applied).
func (n *Node) resetCaughtUp() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.caughtUp = false
}

// CaughtUp reports whether the standby has at some point fully caught up
// with the primary's committed offset (the /readyz gate: a standby serving
// from a half-applied snapshot would answer queries from a store missing
// acknowledged data).
func (n *Node) CaughtUp() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.caughtUp
}

// ObserveAck records a standby's stream request at (epoch, off) — the
// standby's attestation that bytes [0, off) of the epoch's journal are
// durably applied on its side. Called by the primary's stream handler.
func (n *Node) ObserveAck(epoch, off int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.attached = true
	if epoch != n.ackEpoch {
		n.ackEpoch = epoch
		n.ackOff = off
	} else if off > n.ackOff {
		n.ackOff = off
	} else {
		return
	}
	close(n.ackWake)
	n.ackWake = make(chan struct{})
}

// StandbyAttached reports whether a standby has ever connected to this
// node's stream. Sync-ack gating is inert until it has.
func (n *Node) StandbyAttached() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.attached
}

func (n *Node) ackState() (epoch, off int64, wake <-chan struct{}) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ackEpoch, n.ackOff, n.ackWake
}

// Acked reports whether the write that left the journal at target is
// durably applied on the standby. cur re-reads the journal's live state:
// when a compaction has changed the epoch since the write, the original
// offset is meaningless, so the conservative condition is "the standby has
// fully caught up with the current file" — correct because a compacted
// journal contains every live record, and rare because compactions are.
func acked(ackEpoch, ackOff int64, target, cur shapedb.ReplState) bool {
	if ackEpoch == target.Epoch {
		return ackOff >= target.Committed
	}
	return ackEpoch == cur.Epoch && ackOff >= cur.Committed
}

// WaitAcked blocks until the standby has durably applied the write that
// left the journal at target, the context is done, or the timeout expires.
// It returns nil on ack, the context error, or ErrAckTimeout. cur reports
// the journal's current state (see acked). A node with no standby ever
// attached returns nil immediately — sync gating begins at first attach.
func (n *Node) WaitAcked(ctx context.Context, target shapedb.ReplState, cur func() shapedb.ReplState, timeout time.Duration) error {
	if !n.StandbyAttached() {
		return nil
	}
	var timeoutCh <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		timeoutCh = timer.C
	}
	for {
		ackEpoch, ackOff, wake := n.ackState()
		if acked(ackEpoch, ackOff, target, cur()) {
			return nil
		}
		select {
		case <-wake:
		case <-ctx.Done():
			return ErrAckCanceled
		case <-timeoutCh:
			return ErrAckTimeout
		}
	}
}

// Status snapshots the node for the admin endpoint.
func (n *Node) Status() Status {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := Status{
		Role:            n.role.String(),
		Term:            n.term,
		Self:            n.self,
		Primary:         n.primary,
		Epoch:           n.epoch,
		Applied:         n.applied,
		Committed:       n.committed,
		Lag:             n.committed - n.applied,
		CaughtUp:        n.caughtUp,
		Promotions:      n.promotions,
		StepDowns:       n.stepDowns,
		StandbyAttached: n.attached,
		AckedOffset:     n.ackOff,
	}
	if !n.lastContact.IsZero() {
		st.LastContactMS = time.Since(n.lastContact).Milliseconds()
	} else {
		st.LastContactMS = -1
	}
	if n.role == RolePrimary {
		st.StalenessMS = 0
	} else if !n.lastSynced.IsZero() {
		st.StalenessMS = time.Since(n.lastSynced).Milliseconds()
	} else {
		st.StalenessMS = -1
	}
	return st
}
