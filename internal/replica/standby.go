package replica

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"threedess/internal/retry"
	"threedess/internal/shapedb"
)

// Paths of the replication protocol endpoints (served by internal/server,
// consumed here; kept in one place so the two sides cannot drift).
const (
	StatePath  = "/api/replication/state"
	StreamPath = "/api/replication/stream"
	FencePath  = "/api/replication/fence"
)

// PrimaryHeader is set on "not primary" rejections and carries the
// advertised URL of the node that is, so clients and standbys can
// re-resolve without a discovery service.
const PrimaryHeader = "X-Replica-Primary"

// SecretHeader carries the shared replication secret on every protocol
// request (state/stream/fence). A primary configured with a peer secret
// refuses requests without the matching value, keeping the journal stream
// and the fencing endpoint away from arbitrary clients that can reach the
// API port.
const SecretHeader = "X-Replica-Secret"

// Stream response headers: the epoch and committed offset the returned
// bytes were read against, and the primary's fencing term.
const (
	EpochHeader     = "X-Repl-Epoch"
	CommittedHeader = "X-Repl-Committed"
	TermHeader      = "X-Repl-Term"
)

// StandbyConfig tunes the standby loop. Zero values take the defaults.
type StandbyConfig struct {
	// Heartbeat is the cadence of contact with the primary: the long-poll
	// window of stream requests and the retry pause after a failure.
	Heartbeat time.Duration
	// FailoverAfter is the failover budget: how long the primary may be
	// silent before the standby starts promotion. It should cover several
	// heartbeats so one dropped poll doesn't trigger a failover.
	FailoverAfter time.Duration
	// ChunkBytes caps one stream pull (default 1 MiB).
	ChunkBytes int
	// Transport overrides the HTTP transport (the chaos suite injects
	// network faults here).
	Transport http.RoundTripper
	// Secret is sent in the X-Replica-Secret header of every protocol
	// request. Must match the primary's configured peer secret (empty on
	// both sides = open trusted-network mode).
	Secret string
	// MarkerDir, when set, is where the applied-offset marker file is
	// written (on epoch changes, promotion, and drain), letting a
	// restarted standby resume streaming instead of re-bootstrapping.
	MarkerDir string
	// OnPromote is called once after this standby promotes itself.
	OnPromote func(term int64)
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
}

func (c StandbyConfig) withDefaults() StandbyConfig {
	if c.Heartbeat <= 0 {
		c.Heartbeat = 500 * time.Millisecond
	}
	if c.FailoverAfter <= 0 {
		c.FailoverAfter = 6 * c.Heartbeat
	}
	if c.ChunkBytes <= 0 {
		c.ChunkBytes = 1 << 20
	}
	return c
}

// Standby pulls the primary's journal into db, tracks lag, and promotes
// itself (behind the fencing handshake) when the primary goes silent past
// the failover budget. One Standby drives one database.
type Standby struct {
	db   *shapedb.DB
	node *Node
	cfg  StandbyConfig
	http *http.Client

	// epoch is the primary journal incarnation being streamed (0 =
	// unknown, forces a state fetch + bootstrap decision), applied the
	// local journal length — the byte-identical-prefix invariant makes
	// these two numbers the entire replication state.
	epoch   int64
	applied int64

	cancel context.CancelFunc
	done   chan struct{}
}

// errEpochChanged is the internal signal that the primary's journal
// identity moved and the standby must re-handshake.
var errEpochChanged = errors.New("replica: primary epoch changed")

// errNotPrimary is returned when the polled node refuses the stream
// because it is not the primary.
var errNotPrimary = errors.New("replica: peer is not primary")

// NewStandby wires a standby over db and node (built with
// NewStandbyNode). If a marker file exists in
// cfg.MarkerDir and its epoch still matches the primary, streaming resumes
// from the local journal's length; otherwise the first contact bootstraps.
func NewStandby(db *shapedb.DB, node *Node, cfg StandbyConfig) *Standby {
	cfg = cfg.withDefaults()
	s := &Standby{
		db:   db,
		node: node,
		cfg:  cfg,
		http: &http.Client{Transport: cfg.Transport},
		done: make(chan struct{}),
	}
	// The local journal length is authoritative for the applied offset (a
	// crash mid-append was already truncated away by recovery); the marker
	// only contributes the primary epoch those bytes belong to.
	s.applied = db.ReplState().Committed
	if m, ok := LoadMarker(cfg.MarkerDir); ok {
		s.epoch = m.Epoch
	}
	return s
}

// Start launches the standby loop. Stop must be called before the database
// is closed.
func (s *Standby) Start(ctx context.Context) {
	ctx, s.cancel = context.WithCancel(ctx)
	go func() {
		defer close(s.done)
		s.run(ctx)
	}()
}

// Stop halts the loop, then drains: one final bounded catch-up pull (so a
// graceful shutdown doesn't strand committed frames on the primary) and a
// synced marker write recording the applied offset. The ctx bounds the
// drain, not the halt.
func (s *Standby) Stop(ctx context.Context) error {
	if s.cancel != nil {
		s.cancel()
		<-s.done
	}
	return s.Drain(ctx)
}

// Drain performs the final flush of the replication stream: while the
// primary is reachable and has committed frames past our applied offset,
// pull and apply them; then durably write the applied-offset marker. Safe
// to call on a promoted node (it only writes the marker).
func (s *Standby) Drain(ctx context.Context) error {
	if s.node.Role() == RoleStandby {
		for ctx.Err() == nil {
			st, err := s.fetchState(ctx)
			if err != nil || st.Epoch != s.epoch || st.Committed <= s.applied {
				break
			}
			if err := s.streamOnce(ctx, 0); err != nil {
				break
			}
		}
	}
	return s.writeMarker(true)
}

// run is the standby loop: handshake with the primary, stream frames, and
// watch the failover budget.
func (s *Standby) run(ctx context.Context) {
	for ctx.Err() == nil && s.node.Role() == RoleStandby {
		if err := s.iterate(ctx); err != nil {
			s.checkFailover(ctx)
			retry.Sleep(ctx, s.cfg.Heartbeat) // a done ctx ends the loop
		}
	}
}

// iterate performs one handshake + stream session. It returns an error
// when the primary is unreachable or refused us (the caller then weighs
// failover); epoch changes and retargets are handled internally and
// surface as a nil error so the loop re-enters immediately.
func (s *Standby) iterate(ctx context.Context) error {
	st, err := s.fetchState(ctx)
	if err != nil {
		return err
	}
	s.node.markContact()
	if st.Term > s.node.Term() {
		s.node.adoptTerm(st.Term, st.Primary)
	}
	if st.Role != RolePrimary.String() {
		// We are polling a non-primary (it stepped down, or we were
		// misconfigured): follow its pointer if it has one.
		if st.Primary != "" && st.Primary != s.node.PrimaryURL() {
			s.logf("replica: peer is %s, following primary pointer to %s", st.Role, st.Primary)
			s.node.adoptTerm(s.node.Term(), st.Primary)
			return nil
		}
		return errNotPrimary
	}
	if st.Epoch == 0 {
		return fmt.Errorf("replica: primary has no durable journal (in-memory store cannot be replicated)")
	}
	if st.Epoch != s.epoch {
		// Handshake: unfamiliar epoch (first contact, primary restart, or
		// compaction). Discard the local copy and bootstrap from zero —
		// within one epoch bytes never change, across epochs nothing is
		// assumed.
		s.logf("replica: bootstrapping from %s (epoch %d, committed %d)", s.node.PrimaryURL(), st.Epoch, st.Committed)
		s.node.resetCaughtUp()
		if err := s.db.ResetReplica(); err != nil {
			return fmt.Errorf("replica: resetting local store for bootstrap: %w", err)
		}
		s.applied = 0
		s.epoch = st.Epoch
		if err := s.writeMarker(false); err != nil {
			s.logf("replica: writing marker: %v", err)
		}
	}
	for ctx.Err() == nil && s.node.Role() == RoleStandby {
		if err := s.streamOnce(ctx, s.cfg.Heartbeat); err != nil {
			if errors.Is(err, errEpochChanged) {
				return nil // re-handshake immediately
			}
			return err
		}
	}
	return nil
}

// streamOnce pulls one chunk (long-polling up to wait when the primary has
// nothing new), applies it, and publishes progress.
func (s *Standby) streamOnce(ctx context.Context, wait time.Duration) error {
	chunk, committed, err := s.fetchChunk(ctx, wait)
	if err != nil {
		return err
	}
	s.node.markContact()
	if len(chunk) > 0 {
		newOff, err := s.db.ApplyReplicated(s.applied, chunk)
		if err != nil {
			// A diverged or corrupt chunk: force a clean re-handshake
			// rather than guessing.
			s.logf("replica: applying replicated chunk at %d: %v (re-bootstrapping)", s.applied, err)
			s.epoch = 0
			return errEpochChanged
		}
		s.applied = newOff
	}
	s.node.setProgress(s.epoch, s.applied, committed, true)
	return nil
}

// checkFailover promotes this standby if the primary has been silent past
// the failover budget AND this standby has fully caught up at least once
// in the current epoch. The caught-up precondition is load-bearing: a
// standby that never finished its bootstrap holds only a prefix of the
// journal, and while every *acknowledged* write is inside that prefix once
// sync-acks are active, writes acknowledged before this standby first
// attached are not — promoting would serve a store missing acknowledged
// data. Such a standby stays read-only and keeps retrying instead.
func (s *Standby) checkFailover(ctx context.Context) {
	since, ever := s.node.sinceContact()
	if !ever || since < s.cfg.FailoverAfter {
		return
	}
	if !s.node.CaughtUp() {
		s.logf("replica: primary silent for %s but standby never caught up; refusing promotion", since.Round(time.Millisecond))
		return
	}
	s.promote(ctx)
}

// promote runs the fencing handshake and, if it wins, flips this node to
// primary. The handshake offers the old primary term+1: a reachable
// primary steps down before we take writes (never two writable nodes that
// can talk); a refusal means a newer primary exists and we fall in behind
// it; only silence lets us proceed unilaterally — and then the old
// primary, cut off from standby acks, cannot acknowledge writes anyway.
func (s *Standby) promote(ctx context.Context) {
	newTerm := s.node.Term() + 1
	resp, err := s.fence(ctx, newTerm)
	if err == nil && !resp.Accepted {
		s.logf("replica: promotion to term %d refused (current term %d, primary %s)", newTerm, resp.Term, resp.Primary)
		s.node.adoptTerm(resp.Term, resp.Primary)
		return
	}
	if err != nil {
		s.logf("replica: old primary unreachable during fence (%v); promoting unilaterally", err)
	}
	if !s.node.Promote(newTerm) {
		s.logf("replica: promotion to term %d lost a race", newTerm)
		return
	}
	s.logf("replica: PROMOTED to primary at term %d (applied offset %d)", newTerm, s.applied)
	if err := s.writeMarker(true); err != nil {
		s.logf("replica: writing marker after promotion: %v", err)
	}
	if s.cfg.OnPromote != nil {
		s.cfg.OnPromote(newTerm)
	}
}

// --- HTTP plumbing ---

func (s *Standby) fetchState(ctx context.Context) (StateResponse, error) {
	var out StateResponse
	ctx, cancel := context.WithTimeout(ctx, s.cfg.Heartbeat+2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.node.PrimaryURL()+StatePath, nil)
	if err != nil {
		return out, err
	}
	s.authorize(req)
	resp, err := s.http.Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return out, fmt.Errorf("replica: state fetch: HTTP %d: %s", resp.StatusCode, body)
	}
	return out, json.NewDecoder(resp.Body).Decode(&out)
}

// fetchChunk pulls raw frames [applied, committed) from the primary. A 409
// means our epoch is stale (errEpochChanged); a 503 with a primary header
// retargets. The request's off parameter doubles as our durable-apply
// attestation — the primary's sync-ack gate reads it.
func (s *Standby) fetchChunk(ctx context.Context, wait time.Duration) ([]byte, int64, error) {
	ctx, cancel := context.WithTimeout(ctx, wait+10*time.Second)
	defer cancel()
	url := fmt.Sprintf("%s%s?epoch=%d&off=%d&max=%d&wait=%d",
		s.node.PrimaryURL(), StreamPath, s.epoch, s.applied, s.cfg.ChunkBytes, wait.Milliseconds())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, err
	}
	s.authorize(req)
	resp, err := s.http.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		chunk, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, 0, err
		}
		committed, _ := strconv.ParseInt(resp.Header.Get(CommittedHeader), 10, 64)
		if term, err := strconv.ParseInt(resp.Header.Get(TermHeader), 10, 64); err == nil && term > s.node.Term() {
			s.node.adoptTerm(term, "")
		}
		return chunk, committed, nil
	case http.StatusConflict:
		s.epoch = 0
		io.Copy(io.Discard, resp.Body)
		return nil, 0, errEpochChanged
	default:
		if p := resp.Header.Get(PrimaryHeader); p != "" && p != s.node.PrimaryURL() {
			s.node.adoptTerm(s.node.Term(), p)
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, 0, fmt.Errorf("replica: stream: HTTP %d: %s", resp.StatusCode, body)
	}
}

func (s *Standby) fence(ctx context.Context, term int64) (FenceResponse, error) {
	var out FenceResponse
	ctx, cancel := context.WithTimeout(ctx, s.cfg.Heartbeat+2*time.Second)
	defer cancel()
	body, err := json.Marshal(FenceRequest{Term: term, Primary: s.node.SelfURL()})
	if err != nil {
		return out, err
	}
	req, err := retry.NewRequest(ctx, http.MethodPost, s.node.PrimaryURL()+FencePath, "", body)
	if err != nil {
		return out, err
	}
	s.authorize(req)
	resp, err := s.http.Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, err
	}
	return out, nil
}

// authorize stamps the shared replication secret on a protocol request.
func (s *Standby) authorize(req *http.Request) {
	if s.cfg.Secret != "" {
		req.Header.Set(SecretHeader, s.cfg.Secret)
	}
}

func (s *Standby) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// --- applied-offset marker ---

// MarkerName is the file in the data directory recording the replication
// position a cleanly-stopped standby left off at.
const MarkerName = "replica.state"

// Marker is the durable record of a standby's replication position: which
// primary epoch its local journal bytes belong to and how far they reach.
// The local journal itself is authoritative for the byte count (crash
// recovery may truncate a torn tail below Applied); the epoch is what a
// restart cannot reconstruct locally.
type Marker struct {
	Epoch   int64  `json:"epoch"`
	Applied int64  `json:"applied"`
	Term    int64  `json:"term"`
	Primary string `json:"primary"`
}

// LoadMarker reads the marker from dir ("" or missing file = none).
func LoadMarker(dir string) (Marker, bool) {
	var m Marker
	if dir == "" {
		return m, false
	}
	data, err := os.ReadFile(filepath.Join(dir, MarkerName))
	if err != nil {
		return m, false
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, false
	}
	return m, m.Epoch != 0
}

// writeMarker persists the current position atomically (write temp,
// rename); sync additionally fsyncs the file before the rename, used for
// the final drain write where the marker is the point of the exercise.
func (s *Standby) writeMarker(sync bool) error {
	if s.cfg.MarkerDir == "" {
		return nil
	}
	m := Marker{Epoch: s.epoch, Applied: s.applied, Term: s.node.Term(), Primary: s.node.PrimaryURL()}
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	path := filepath.Join(s.cfg.MarkerDir, MarkerName)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if sync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
