package scatter

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"threedess/internal/retry"
	"threedess/internal/shapedb"
)

// Live shard rebalancing (DESIGN.md §14). The Migrator drives a cluster
// from N shards to M through four fenced, individually-persisted
// phases:
//
//	prepare  — epoch E+1: writes route by the target ring, reads by the
//	           old one; pushed to every fleet shard before any copy.
//	copy     — every record whose target-ring owner differs from its
//	           current shard is exported (exact journal frame bytes),
//	           imported idempotently on its new owner, and CRC-verified
//	           batch by batch.
//	cutover  — epoch E+2: reads double-route over both rings (merged,
//	           deduplicated); pushed until EVERY shard acks — the gate
//	           that makes the delete below safe.
//	drop     — sources delete moved records; epoch E+3 retires the old
//	           ring.
//
// Progress lands in a rebalance.state journal (fsynced JSON lines), so
// a crashed driver resumes from the last verified batch at a higher
// fencing term instead of restarting — and a superseded driver's pushes
// and imports are rejected fleet-wide by that same term.

// ErrSuperseded reports that another driver took over the migration at
// a higher fencing term; this driver must stop immediately.
var ErrSuperseded = errors.New("scatter: migration superseded by a newer driver")

// MigrateOptions configures one rebalance run.
type MigrateOptions struct {
	// Target is the shard count to rebalance to. Zero resumes whatever an
	// existing state journal describes.
	Target int
	// Add supplies specs for new shard slots when growing (slot indexes
	// current..Target-1). Ignored on resume if the state journal already
	// names the fleet.
	Add []ShardSpec
	// BatchSize bounds how many records move per copy batch (default 64).
	BatchSize int
	// StatePath is the rebalance.state journal. Empty disables
	// persistence — the migration still runs, but cannot resume a crash.
	StatePath string
	// Holder identifies this driver for fencing (default "rebalance").
	Holder string
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

// MigrationStatus is the admin view of a migration.
type MigrationStatus struct {
	Active  bool   `json:"active"`
	Phase   string `json:"phase"`
	Term    int64  `json:"term"`
	Epoch   int64  `json:"epoch"`
	From    int    `json:"from"`
	To      int    `json:"to"`
	Copied  int64  `json:"copied"`
	Dropped int64  `json:"dropped"`
	Err     string `json:"error,omitempty"`
}

// Wire types of the shard-side migration endpoints (internal/server
// implements them; the Migrator and the tests speak them).

// MovedRequest asks a shard to enumerate records it holds whose
// write-ring owner is some other shard — the records that must move.
// Paged by (After, Limit) over ascending ids.
type MovedRequest struct {
	After int64 `json:"after"`
	Limit int   `json:"limit"`
}

// MovedResponse answers MovedRequest.
type MovedResponse struct {
	IDs  []int64 `json:"ids"`
	More bool    `json:"more"`
}

// ExportRequest asks a shard to export records by id.
type ExportRequest struct {
	IDs []int64 `json:"ids"`
}

// ExportResponse carries exported records.
type ExportResponse struct {
	Records []shapedb.ExportFrame `json:"records"`
}

// ImportRequest lands exported records on their new owner, fenced by
// the driver's term.
type ImportRequest struct {
	Term    int64                 `json:"term"`
	Holder  string                `json:"holder"`
	Records []shapedb.ExportFrame `json:"records"`
}

// ImportResponse answers ImportRequest.
type ImportResponse struct {
	Added int `json:"added"`
}

// CRCRequest asks a shard for canonical content CRCs by id.
type CRCRequest struct {
	IDs []int64 `json:"ids"`
}

// CRCResponse answers CRCRequest: CRCs[i] belongs to IDs[i]; Missing
// lists requested ids the shard does not hold.
type CRCResponse struct {
	IDs     []int64  `json:"ids"`
	CRCs    []uint32 `json:"crcs"`
	Missing []int64  `json:"missing,omitempty"`
}

// DropMovedRequest tells a source shard to delete every record whose
// serving-ring owner is no longer itself — only ever sent after cutover
// was acked by the whole fleet, and fenced by the driver's term.
type DropMovedRequest struct {
	Term   int64  `json:"term"`
	Holder string `json:"holder"`
}

// DropMovedResponse answers DropMovedRequest.
type DropMovedResponse struct {
	Dropped int `json:"dropped"`
}

// migrationEvent is one fsynced JSON line of the rebalance.state
// journal.
type migrationEvent struct {
	Event     string     `json:"event"` // begin | range | source | cutover | dropped | done
	Term      int64      `json:"term,omitempty"`
	Holder    string     `json:"holder,omitempty"`
	From      int        `json:"from,omitempty"`
	To        int        `json:"to,omitempty"`
	BaseEpoch int64      `json:"base_epoch,omitempty"`
	Endpoints [][]string `json:"endpoints,omitempty"`
	Source    int        `json:"source"`
	After     int64      `json:"after,omitempty"`
	Copied    int64      `json:"copied,omitempty"`
}

// migrationPlan is what a state journal (or fresh options) resolves to.
type migrationPlan struct {
	from, to  int
	baseEpoch int64
	term      int64 // highest term seen so far (new runs fence above it)
	endpoints [][]string
	// progress
	afterBySource map[int]int64
	doneSources   map[int]bool
	cutover       bool
	droppedBy     map[int]bool
	done          bool
}

// Migrator drives one rebalance over a live Coordinator.
type Migrator struct {
	c    *Coordinator
	opts MigrateOptions

	mu     sync.Mutex
	status MigrationStatus
	stateF *os.File
}

// NewMigrator prepares a rebalance (or the resume of one) without
// starting it. Call Run to drive it.
func NewMigrator(c *Coordinator, opts MigrateOptions) *Migrator {
	if opts.BatchSize <= 0 {
		opts.BatchSize = 64
	}
	if opts.Holder == "" {
		opts.Holder = "rebalance"
	}
	return &Migrator{c: c, opts: opts}
}

// Status snapshots the migration's progress.
func (m *Migrator) Status() MigrationStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.status
}

func (m *Migrator) setPhase(phase string) {
	m.mu.Lock()
	m.status.Phase = phase
	m.mu.Unlock()
	m.logf("rebalance: %s", phase)
}

func (m *Migrator) logf(format string, args ...any) {
	if m.opts.Logf != nil {
		m.opts.Logf(format, args...)
	}
}

// loadPlan reads the state journal (if any) and folds in the options.
// A torn final line (crash mid-append) is ignored.
func (m *Migrator) loadPlan() (*migrationPlan, error) {
	p := &migrationPlan{
		afterBySource: map[int]int64{},
		doneSources:   map[int]bool{},
		droppedBy:     map[int]bool{},
	}
	if m.opts.StatePath != "" {
		data, err := os.ReadFile(m.opts.StatePath)
		if err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("scatter: reading %s: %w", m.opts.StatePath, err)
		}
		for _, line := range splitLines(data) {
			var ev migrationEvent
			if json.Unmarshal(line, &ev) != nil {
				continue // torn tail from a crash mid-append
			}
			switch ev.Event {
			case "begin":
				// A new begin supersedes all earlier progress (a previous,
				// completed migration — or this one restarted at a higher
				// term, whose progress events follow).
				p.from, p.to = ev.From, ev.To
				p.baseEpoch = ev.BaseEpoch
				p.endpoints = ev.Endpoints
				if ev.Term > p.term {
					p.term = ev.Term
				}
				if p.done {
					// The previous migration finished; this begin starts a
					// fresh one with clean progress.
					p.afterBySource = map[int]int64{}
					p.doneSources = map[int]bool{}
					p.droppedBy = map[int]bool{}
					p.cutover = false
					p.done = false
				}
			case "range":
				if ev.After > p.afterBySource[ev.Source] {
					p.afterBySource[ev.Source] = ev.After
				}
			case "source":
				p.doneSources[ev.Source] = true
			case "cutover":
				p.cutover = true
			case "dropped":
				p.droppedBy[ev.Source] = true
			case "done":
				p.done = true
			}
		}
	}
	cur := m.c.State()
	if p.endpoints == nil || p.done {
		// Fresh migration: the plan comes from the options.
		if m.opts.Target < 1 {
			return nil, fmt.Errorf("scatter: rebalance needs a target shard count")
		}
		if p.done {
			*p = migrationPlan{
				afterBySource: map[int]int64{},
				doneSources:   map[int]bool{},
				droppedBy:     map[int]bool{},
				term:          p.term,
			}
		}
		p.from = cur.Shards
		p.to = m.opts.Target
		p.baseEpoch = cur.Epoch
		specs := append([]ShardSpec(nil), m.c.Specs()...)
		specs = append(specs, m.opts.Add...)
		if len(specs) < maxInt(p.from, p.to) {
			return nil, fmt.Errorf("scatter: rebalance %d→%d needs %d shard specs, have %d (use Add for new shards)",
				p.from, p.to, maxInt(p.from, p.to), len(specs))
		}
		p.endpoints = make([][]string, maxInt(p.from, p.to))
		for i := range p.endpoints {
			p.endpoints[i] = specs[i].Endpoints
		}
	} else if m.opts.Target != 0 && m.opts.Target != p.to {
		return nil, fmt.Errorf("scatter: state journal describes a %d→%d migration in flight; finish or clear it before rebalancing to %d",
			p.from, p.to, m.opts.Target)
	}
	if cur.Term > p.term {
		p.term = cur.Term
	}
	if p.from == p.to {
		return nil, fmt.Errorf("scatter: cluster already has %d shards", p.to)
	}
	return p, nil
}

// LoadPlan resolves the state journal and options into a migration plan
// without running anything — the dry-run probe a restarting coordinator
// uses to decide whether an interrupted migration needs resuming. The
// error explains why there is nothing to run (no journal and no target,
// the journal's migration already finished, ...).
func (m *Migrator) LoadPlan() (from, to int, err error) {
	p, err := m.loadPlan()
	if err != nil {
		return 0, 0, err
	}
	return p.from, p.to, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func splitLines(data []byte) [][]byte {
	var out [][]byte
	start := 0
	for i, b := range data {
		if b == '\n' {
			if i > start {
				out = append(out, data[start:i])
			}
			start = i + 1
		}
	}
	if start < len(data) {
		out = append(out, data[start:])
	}
	return out
}

// persist appends one fsynced event line to the state journal.
func (m *Migrator) persist(ev migrationEvent) error {
	if m.opts.StatePath == "" {
		return nil
	}
	if m.stateF == nil {
		// A coordinator's -data directory may exist solely for this journal
		// (its shape store is in-memory), so nothing else has created it.
		if dir := filepath.Dir(m.opts.StatePath); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return fmt.Errorf("scatter: creating %s: %w", dir, err)
			}
		}
		f, err := os.OpenFile(m.opts.StatePath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("scatter: opening %s: %w", m.opts.StatePath, err)
		}
		m.stateF = f
	}
	line, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	if _, err := m.stateF.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("scatter: appending to %s: %w", m.opts.StatePath, err)
	}
	if err := m.stateF.Sync(); err != nil {
		return fmt.Errorf("scatter: syncing %s: %w", m.opts.StatePath, err)
	}
	return nil
}

// Run drives the migration to completion (or ctx cancellation / a
// fencing loss). It is safe to call again after a failure: every phase
// resumes from the persisted state.
func (m *Migrator) Run(ctx context.Context) (err error) {
	defer func() {
		m.mu.Lock()
		m.status.Active = false
		if err != nil {
			m.status.Err = err.Error()
		}
		m.mu.Unlock()
		if m.stateF != nil {
			m.stateF.Close()
			m.stateF = nil
		}
	}()

	p, err := m.loadPlan()
	if err != nil {
		return err
	}
	term := p.term + 1 // fence above every driver that came before us
	m.mu.Lock()
	m.status = MigrationStatus{Active: true, Term: term, From: p.from, To: p.to}
	m.mu.Unlock()

	if err := m.persist(migrationEvent{
		Event: "begin", Term: term, Holder: m.opts.Holder,
		From: p.from, To: p.to, BaseEpoch: p.baseEpoch, Endpoints: p.endpoints,
	}); err != nil {
		return err
	}

	specs := m.specsFor(p.endpoints)
	state1 := RingState{Epoch: p.baseEpoch + 1, Term: term, Holder: m.opts.Holder,
		Shards: p.from, Target: p.to, Endpoints: p.endpoints}
	state2 := RingState{Epoch: p.baseEpoch + 2, Term: term, Holder: m.opts.Holder,
		Shards: p.to, Draining: p.from, Endpoints: p.endpoints}
	state3 := RingState{Epoch: p.baseEpoch + 3, Term: term, Holder: m.opts.Holder,
		Shards: p.to, Endpoints: p.endpoints[:p.to]}

	writeRing, err := NewRing(p.to)
	if err != nil {
		return err
	}

	if !p.cutover {
		// Phase 1: prepare. Every fleet shard must adopt the transitional
		// state before any record moves — writes start routing by the
		// target ring the moment this lands.
		m.setPhase("prepare")
		m.setEpoch(state1.Epoch)
		if err := m.c.SetTopology(state1, specs); err != nil {
			return err
		}
		if err := m.pushAll(ctx, state1); err != nil {
			return err
		}

		// Phase 2: copy + per-batch verify, per source shard.
		m.setPhase("copy")
		for src := 0; src < p.from; src++ {
			if p.doneSources[src] {
				continue
			}
			if err := m.copySource(ctx, src, p.afterBySource[src], writeRing, term); err != nil {
				return err
			}
		}

		// Phase 3: full verification sweep — every moved id re-enumerated
		// from its source and CRC-compared against its destination, with
		// bounded repair rounds. Only a fully verified fleet cuts over.
		m.setPhase("verify")
		for src := 0; src < p.from; src++ {
			if p.doneSources[src] {
				continue
			}
			if err := m.verifySource(ctx, src, writeRing, term); err != nil {
				return err
			}
			if err := m.persist(migrationEvent{Event: "source", Source: src}); err != nil {
				return err
			}
		}

		// Phase 4: cutover. The new ring becomes authoritative for reads,
		// with the old ring double-routed until finalize. EVERY shard must
		// ack this state — it is the gate that makes the drop safe.
		m.setPhase("cutover")
		m.setEpoch(state2.Epoch)
		if err := m.c.SetTopology(state2, specs); err != nil {
			return err
		}
		if err := m.pushAll(ctx, state2); err != nil {
			return err
		}
		if err := m.persist(migrationEvent{Event: "cutover"}); err != nil {
			return err
		}
	} else {
		// Resuming after cutover: re-fence the fleet at our higher term
		// before touching anything.
		m.setPhase("cutover")
		m.setEpoch(state2.Epoch)
		if err := m.c.SetTopology(state2, specs); err != nil {
			return err
		}
		if err := m.pushAll(ctx, state2); err != nil {
			return err
		}
	}

	// Phase 5: drop. Sources delete every record the new ring routes
	// elsewhere. Safe because the whole fleet acked cutover: every reader
	// already finds the moved copies on their new owners.
	m.setPhase("drop")
	for src := 0; src < p.from; src++ {
		if p.droppedBy[src] {
			continue
		}
		var resp DropMovedResponse
		if err := m.fenced(m.c.Shard(src).Call(ctx, http.MethodPost, "/api/cluster/dropmoved",
			DropMovedRequest{Term: term, Holder: m.opts.Holder}, &resp)); err != nil {
			return fmt.Errorf("scatter: dropping moved records on %s: %w", ShardName(src), err)
		}
		m.mu.Lock()
		m.status.Dropped += int64(resp.Dropped)
		m.mu.Unlock()
		if err := m.persist(migrationEvent{Event: "dropped", Source: src}); err != nil {
			return err
		}
	}

	// Phase 6: finalize. Single-ring state at the final epoch, pushed to
	// the whole old fleet (removed shards learn they are out), then the
	// coordinator trims its own view.
	m.setPhase("finalize")
	m.setEpoch(state3.Epoch)
	if err := m.pushAll(ctx, state3); err != nil {
		return err
	}
	if err := m.c.SetTopology(state3, specs[:p.to]); err != nil {
		return err
	}
	if err := m.persist(migrationEvent{Event: "done"}); err != nil {
		return err
	}
	m.setPhase("done")
	return nil
}

func (m *Migrator) setEpoch(e int64) {
	m.mu.Lock()
	m.status.Epoch = e
	m.mu.Unlock()
}

// specsFor builds fleet specs from persisted endpoints, carrying over
// the coordinator's transports for slots whose endpoints are unchanged
// (fault-injecting test transports must survive a resume).
func (m *Migrator) specsFor(endpoints [][]string) []ShardSpec {
	have := m.c.Specs()
	specs := make([]ShardSpec, len(endpoints))
	for i, eps := range endpoints {
		specs[i] = ShardSpec{Endpoints: eps}
		if i < len(have) && equalStrings(have[i].Endpoints, eps) {
			specs[i].Transport = have[i].Transport
		}
		for _, add := range m.opts.Add {
			if equalStrings(add.Endpoints, eps) {
				specs[i].Transport = add.Transport
			}
		}
	}
	return specs
}

// pushAll pushes a RingState to every fleet shard until ALL ack,
// retrying unreachable shards with a short backoff for as long as ctx
// allows. A rejection carrying a higher term aborts with ErrSuperseded.
func (m *Migrator) pushAll(ctx context.Context, st RingState) error {
	acked := make([]bool, m.c.NumShards())
	for {
		allAcked := true
		errs := m.c.ForEach(ctx, func(ctx context.Context, i int, sc *ShardClient) error {
			if acked[i] {
				return nil
			}
			got, ok := sc.pushState(ctx, st)
			if ok {
				acked[i] = true
				return nil
			}
			if got.Term > st.Term {
				return ErrSuperseded
			}
			return fmt.Errorf("scatter: %s did not adopt epoch %d", sc.Name(), st.Epoch)
		})
		for _, err := range errs {
			if errors.Is(err, ErrSuperseded) {
				return ErrSuperseded
			}
			if err != nil {
				allAcked = false
			}
		}
		if allAcked {
			return nil
		}
		if err := retry.Sleep(ctx, 100*time.Millisecond); err != nil {
			return fmt.Errorf("scatter: pushing ring epoch %d: %w", st.Epoch, err)
		}
	}
}

// fenced maps a shard's 409 epoch answer onto ErrSuperseded when it
// carries a term above ours — the one error a driver must not retry
// past.
func (m *Migrator) fenced(err error) error {
	var ee *EpochError
	if errors.As(err, &ee) {
		st := m.c.State()
		if ee.State.Term > st.Term || (ee.State.Term == st.Term && ee.State.Holder != m.opts.Holder) {
			return ErrSuperseded
		}
	}
	return err
}

// copySource moves every record off src whose write-ring owner differs,
// in verified batches: enumerate → export → import on each destination
// → CRC-check the batch on both sides → persist the range. A record
// deleted on the source mid-batch (the copy raced a client delete) is
// deleted from its destination too, so the fleet never resurrects it.
func (m *Migrator) copySource(ctx context.Context, src int, after int64, writeRing *Ring, term int64) error {
	sc := m.c.Shard(src)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var moved MovedResponse
		if err := m.fenced(sc.Call(ctx, http.MethodPost, "/api/cluster/moved",
			MovedRequest{After: after, Limit: m.opts.BatchSize}, &moved)); err != nil {
			return fmt.Errorf("scatter: enumerating moved records on %s: %w", ShardName(src), err)
		}
		if len(moved.IDs) == 0 {
			return nil
		}
		var exp ExportResponse
		if err := m.fenced(sc.Call(ctx, http.MethodPost, "/api/cluster/export",
			ExportRequest{IDs: moved.IDs}, &exp)); err != nil {
			return fmt.Errorf("scatter: exporting from %s: %w", ShardName(src), err)
		}
		if err := m.importBatch(ctx, exp.Records, writeRing, term); err != nil {
			return err
		}
		if err := m.reconcileBatch(ctx, src, moved.IDs, writeRing, term); err != nil {
			return err
		}
		after = moved.IDs[len(moved.IDs)-1]
		m.mu.Lock()
		m.status.Copied += int64(len(exp.Records))
		m.mu.Unlock()
		if err := m.persist(migrationEvent{Event: "range", Source: src, After: after, Copied: int64(len(exp.Records))}); err != nil {
			return err
		}
		if !moved.More {
			return nil
		}
	}
}

// importBatch routes exported records to their write-ring owners and
// imports them there.
func (m *Migrator) importBatch(ctx context.Context, records []shapedb.ExportFrame, writeRing *Ring, term int64) error {
	byDest := map[int][]shapedb.ExportFrame{}
	for _, rec := range records {
		byDest[writeRing.Owner(rec.ID)] = append(byDest[writeRing.Owner(rec.ID)], rec)
	}
	for dest, batch := range byDest {
		var resp ImportResponse
		if err := m.fenced(m.c.Shard(dest).Call(ctx, http.MethodPost, "/api/cluster/import",
			ImportRequest{Term: term, Holder: m.opts.Holder, Records: batch}, &resp)); err != nil {
			return fmt.Errorf("scatter: importing into %s: %w", ShardName(dest), err)
		}
	}
	return nil
}

// reconcileBatch CRC-compares one batch of moved ids between source and
// destinations and repairs differences: missing/mismatched on the
// destination → re-copy; deleted on the source since enumeration → the
// destination copy is deleted too. Every id was enumerated FROM the
// source, so a fresh client insert (which only ever lands on its
// write-ring owner) can never be mistaken for a stale copy.
func (m *Migrator) reconcileBatch(ctx context.Context, src int, ids []int64, writeRing *Ring, term int64) error {
	for round := 0; round < 5; round++ {
		srcCRCs, err := m.fetchCRCs(ctx, src, ids)
		if err != nil {
			return err
		}
		byDest := map[int][]int64{}
		for _, id := range ids {
			byDest[writeRing.Owner(id)] = append(byDest[writeRing.Owner(id)], id)
		}
		var recopy, drop []int64
		for dest, destIDs := range byDest {
			destCRCs, err := m.fetchCRCs(ctx, dest, destIDs)
			if err != nil {
				return err
			}
			for _, id := range destIDs {
				sc, onSrc := srcCRCs[id]
				dc, onDest := destCRCs[id]
				switch {
				case onSrc && (!onDest || sc != dc):
					recopy = append(recopy, id)
				case !onSrc && onDest:
					// Deleted on the source after enumeration: the copy
					// must not outlive the original.
					drop = append(drop, id)
				}
			}
			for _, id := range drop {
				if err := m.fenced(m.c.Shard(dest).Call(ctx, http.MethodDelete,
					fmt.Sprintf("/api/shapes/%d", id), nil, nil)); err != nil {
					return fmt.Errorf("scatter: dropping stale copy %d on %s: %w", id, ShardName(dest), err)
				}
			}
			drop = drop[:0]
		}
		if len(recopy) == 0 {
			return nil
		}
		var exp ExportResponse
		if err := m.fenced(m.c.Shard(src).Call(ctx, http.MethodPost, "/api/cluster/export",
			ExportRequest{IDs: recopy}, &exp)); err != nil {
			return fmt.Errorf("scatter: re-exporting from %s: %w", ShardName(src), err)
		}
		if err := m.importBatch(ctx, exp.Records, writeRing, term); err != nil {
			return err
		}
		ids = recopy
	}
	return fmt.Errorf("scatter: %s batch failed to verify after 5 repair rounds", ShardName(src))
}

func (m *Migrator) fetchCRCs(ctx context.Context, shard int, ids []int64) (map[int64]uint32, error) {
	var resp CRCResponse
	if err := m.fenced(m.c.Shard(shard).Call(ctx, http.MethodPost, "/api/cluster/crc",
		CRCRequest{IDs: ids}, &resp)); err != nil {
		return nil, fmt.Errorf("scatter: fetching CRCs from %s: %w", ShardName(shard), err)
	}
	out := make(map[int64]uint32, len(resp.IDs))
	for i, id := range resp.IDs {
		if i < len(resp.CRCs) {
			out[id] = resp.CRCs[i]
		}
	}
	return out, nil
}

// verifySource is the full post-copy sweep over one source: every moved
// id re-enumerated and CRC-verified via the same reconcile machinery as
// the copy batches.
func (m *Migrator) verifySource(ctx context.Context, src int, writeRing *Ring, term int64) error {
	sc := m.c.Shard(src)
	var after int64
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var moved MovedResponse
		if err := m.fenced(sc.Call(ctx, http.MethodPost, "/api/cluster/moved",
			MovedRequest{After: after, Limit: m.opts.BatchSize}, &moved)); err != nil {
			return fmt.Errorf("scatter: verify enumeration on %s: %w", ShardName(src), err)
		}
		if len(moved.IDs) == 0 {
			return nil
		}
		if err := m.reconcileBatch(ctx, src, moved.IDs, writeRing, term); err != nil {
			return err
		}
		after = moved.IDs[len(moved.IDs)-1]
		if !moved.More {
			return nil
		}
	}
}
