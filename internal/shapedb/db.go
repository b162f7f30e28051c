// Package shapedb is the DATABASE tier of 3DESS (§2.3): a concurrency-safe
// shape record store, durable via an append-only CRC-checked journal with
// crash recovery and compaction. It substitutes for the paper's Oracle 8i
// installation while preserving the architecture: "the multi-dimensional
// index is built on top of [the] database" — the per-kind column
// snapshots of internal/colstore, each with its bulk-loaded R-tree, are
// derived from this store's records and version counter.
package shapedb

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"threedess/internal/faultfs"
	"threedess/internal/features"
	"threedess/internal/geom"
	"threedess/internal/rtree"
)

// Record is one stored shape: identity, ground-truth group (0 = none),
// geometry, and its extracted feature vectors. Degraded lists the stable
// names of feature kinds whose extraction was skipped on a
// valid-but-nasty mesh (see features.Degradation); such a record is
// searchable through every descriptor it does carry.
type Record struct {
	ID       int64
	Name     string
	Group    int
	Mesh     *geom.Mesh
	Features features.Set
	Degraded []string
	// IdemKey ties the record to the client idempotency key it was
	// inserted under ("" = none). IdemIndex/IdemCount place it inside that
	// key's batch (0 of 1 for a single insert), so a retried request can be
	// answered with the original IDs only when every record of the batch is
	// still present. The fields are journaled, survive replay, compaction,
	// and replication, which is what makes insert retries safe across
	// failover.
	IdemKey   string
	IdemIndex int
	IdemCount int
}

// DB is the shape database.
type DB struct {
	mu      sync.RWMutex
	opts    features.Options
	records map[int64]*Record
	nextID  int64

	journal  *journal
	dir      string
	fsys     faultfs.FS
	recovery *RecoveryReport

	// frames maps each live record to its insert frame in the current
	// journal file, so the scrubber can re-verify the on-disk bytes a
	// record was acknowledged with. liveBytes is the running sum of those
	// frame sizes and entryCount the total frames in the journal file
	// (live + superseded); both feed the compaction trigger policy.
	frames     map[int64]frameRef
	liveBytes  int64
	entryCount int
	// quarantined holds records the scrubber pulled out of service:
	// removed from records and every index, kept here for inspection.
	// dirtyQuarantine counts quarantines whose (possibly rotten) frames
	// are still in the journal file — reset when compaction rewrites it.
	quarantined     map[int64]QuarantineInfo
	dirtyQuarantine int
	// compacting rejects a second concurrent Compact with
	// ErrCompactionInProgress instead of queueing a redundant rewrite
	// behind the first (admin trigger racing the policy timer).
	compacting atomic.Bool
	// replEpoch names the current journal file incarnation for the
	// replication protocol (see replication.go): regenerated on every Open,
	// compaction, and ResetReplica, because each of those invalidates byte
	// offsets into the previous file.
	replEpoch int64
	// commitWake, when non-nil, is closed whenever the journal's
	// replication state moves (bytes committed, epoch regenerated), waking
	// CommitNotify waiters such as the stream long-poll. Lazily created;
	// guarded by mu.
	commitWake chan struct{}
	// idem maps an idempotency key to its batch positions (index → id) so
	// a retried insert can be answered with the original IDs. Maintained by
	// applyInsert/applyDelete, so replay and replication rebuild it.
	idem map[string]map[int]int64
	// version counts record-set mutations (inserts, deletes, quarantines,
	// replica resets). Derived read-side structures — the columnar
	// descriptor store above all — compare it against the version their
	// snapshot was built from to detect staleness cheaply.
	version int64
	// fenced, when non-nil, is the read-only fence: a journal append or
	// sync failed (disk full, I/O error) but the file was rolled back to
	// the last acknowledged frame boundary, so reads, searches,
	// replication reads, and backups keep serving while every mutation is
	// refused with this error (wrapping ErrReadOnly). A successful
	// compaction — which rewrites the journal from the in-memory state
	// holding exactly the acknowledged writes — clears it.
	fenced error
}

// frameRef locates one record's insert frame in the journal file.
type frameRef struct {
	off, size int64
}

const (
	journalName = "shapes.journal"
	compactName = journalName + ".compact"
	corruptName = journalName + ".corrupt"
)

// Open creates or reopens a shape database on the real filesystem. dir ==
// "" gives a purely in-memory store; otherwise the journal in dir is
// replayed and new operations are appended to it.
func Open(dir string, opts features.Options) (*DB, error) {
	return OpenFS(dir, opts, faultfs.OS{})
}

// OpenFS is Open with an explicit filesystem, the entry point of the
// fault-injection harness. Recovery is degraded, not refused: a torn or
// corrupt journal tail is quarantined to shapes.journal.corrupt, truncated
// off, and reported via Recovery() — the intact prefix always opens.
func OpenFS(dir string, opts features.Options, fsys faultfs.FS) (*DB, error) {
	db := &DB{
		opts:        features.NewExtractor(opts).Options(),
		records:     make(map[int64]*Record),
		nextID:      1,
		dir:         dir,
		fsys:        fsys,
		frames:      make(map[int64]frameRef),
		quarantined: make(map[int64]QuarantineInfo),
		idem:        make(map[string]map[int]int64),
		replEpoch:   newReplEpoch(),
	}
	if dir == "" {
		return db, nil
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("shapedb: creating %s: %w", dir, err)
	}
	// A leftover compaction temp file means a crash mid-compact; the real
	// journal is still authoritative, so discard the partial rewrite.
	if err := fsys.Remove(filepath.Join(dir, compactName)); err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("shapedb: removing stale compaction file: %w", err)
	}
	path := filepath.Join(dir, journalName)
	var skipped int
	rep, err := replayJournal(fsys, path, func(e *journalEntry, off, size int64) error {
		db.entryCount++
		switch e.Op {
		case opInsert:
			set, err := decodeFeatures(e.Features)
			if err != nil {
				return fmt.Errorf("shapedb: journal entry %d: %w", e.ID, err)
			}
			// A decodable entry can still carry vectors no search may see —
			// non-finite coordinates, or dimensions from a different option
			// set than this open. Applying it would poison the live-row box
			// and the column grids of every future search; skip it and
			// report instead.
			if checkFeatures(db.opts, set) != nil {
				skipped++
				return nil
			}
			mesh := &geom.Mesh{Vertices: e.Vertices, Faces: e.Faces}
			rec := &Record{
				ID: e.ID, Name: e.Name, Group: e.Group, Mesh: mesh, Features: set, Degraded: e.Degraded,
				IdemKey: e.IdemKey, IdemIndex: e.IdemIdx, IdemCount: e.IdemCnt,
			}
			db.applyInsert(rec)
			db.setFrame(rec.ID, frameRef{off: off, size: size})
		case opDelete:
			db.applyDelete(e.ID)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.SkippedRecords = skipped
	if rep.Degraded() {
		if err := quarantineTail(fsys, dir, rep); err != nil {
			return nil, fmt.Errorf("shapedb: quarantining corrupt journal tail: %w", err)
		}
	}
	db.recovery = rep
	j, err := openJournal(fsys, path)
	if err != nil {
		return nil, err
	}
	db.journal = j
	return db, nil
}

// Recovery returns the report of the journal replay that opened this
// database (nil for in-memory stores). A Degraded() report means bytes
// were discarded; the quarantined tail is kept next to the journal for
// inspection.
func (db *DB) Recovery() *RecoveryReport { return db.recovery }

// quarantineTail copies the discarded garbage after the intact journal
// prefix to shapes.journal.corrupt, then truncates the journal back to the
// prefix, so the next append extends intact data instead of burying the
// garbage mid-file. The quarantine file is synced before the journal is
// cut, and the directory afterwards, so a crash between the two steps
// loses nothing.
func quarantineTail(fsys faultfs.FS, dir string, rep *RecoveryReport) error {
	path := filepath.Join(dir, journalName)
	f, err := fsys.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.Seek(rep.GoodBytes, io.SeekStart); err != nil {
		return err
	}
	tail := make([]byte, rep.DiscardedBytes)
	if _, err := io.ReadFull(f, tail); err != nil {
		return err
	}
	qpath := filepath.Join(dir, corruptName)
	q, err := fsys.OpenFile(qpath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := q.Write(tail); err != nil {
		q.Close()
		return err
	}
	if err := q.Sync(); err != nil {
		q.Close()
		return err
	}
	if err := q.Close(); err != nil {
		return err
	}
	if err := f.Truncate(rep.GoodBytes); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := fsys.SyncDir(dir); err != nil {
		return err
	}
	rep.Quarantined = qpath
	return nil
}

// Close releases the journal. The DB must not be used afterwards.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.journal == nil {
		return nil
	}
	err := db.journal.close()
	db.journal = nil
	return err
}

// Options returns the feature configuration the database was opened with.
func (db *DB) Options() features.Options { return db.opts }

// Len returns the number of stored shapes.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.records)
}

// Insert stores a shape with every feature vector in its set. It returns
// the assigned database ID.
func (db *DB) Insert(name string, group int, mesh *geom.Mesh, set features.Set) (int64, error) {
	return db.InsertFull(name, group, mesh, set, nil)
}

// InsertOpts carries the optional fields of InsertWith.
type InsertOpts struct {
	// Degraded lists feature kinds skipped during extraction.
	Degraded []string
	// IdemKey attributes the insert to a client idempotency key ("" =
	// none); IdemIndex/IdemCount place it inside that key's batch. A single
	// keyed insert uses index 0, count 1.
	IdemKey   string
	IdemIndex int
	IdemCount int
	// ID requests an explicit record id instead of the next sequential one
	// (0 = assign sequentially). Sharded clusters allocate ids centrally so
	// every shard's records live in one global id space; an id already in
	// use fails the insert with ErrIDExists. The sequential counter always
	// advances past explicit ids, so the two schemes can coexist.
	ID int64
}

// ErrIDExists reports an explicit-id insert whose id is already taken.
var ErrIDExists = errors.New("shapedb: id already exists")

// ErrReadOnly marks the database fenced read-only after a journal write
// failure (typically disk exhaustion): the failed write was rolled back
// and never acknowledged, reads keep serving, and every mutation is
// refused with an error wrapping this sentinel until a successful
// compaction (freed space) heals the fence.
var ErrReadOnly = errors.New("shapedb: database is read-only")

// fenceLocked flips the database read-only with the given cause (the
// first cause wins) and returns the fence error. Callers hold the write
// lock.
func (db *DB) fenceLocked(cause error) error {
	if db.fenced == nil {
		db.fenced = fmt.Errorf("%w: journal write failed: %v", ErrReadOnly, cause)
		db.wakeCommitWaiters()
	}
	return db.fenced
}

// ReadOnlyErr returns the read-only fence error (nil when the database
// accepts writes). The serving layer maps it to 503 + Retry-After.
func (db *DB) ReadOnlyErr() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.fenced
}

// InsertFull is Insert carrying per-kind degradation flags (stable feature
// kind names whose extraction was skipped; see features.Degradation). The
// flags are journaled with the record and survive recovery.
func (db *DB) InsertFull(name string, group int, mesh *geom.Mesh, set features.Set, degraded []string) (int64, error) {
	return db.InsertWith(name, group, mesh, set, InsertOpts{Degraded: degraded})
}

// InsertWith is the full insert entry point: degradation flags plus
// idempotency attribution (see InsertOpts), all journaled with the record.
//
// The shape is validated before anything is journaled: the mesh must be
// structurally sound and every feature vector must have the configured
// dimension and finite coordinates. A single NaN coordinate would
// otherwise poison the live-row box behind every future similarity value
// and the quantization grid of every column scan.
func (db *DB) InsertWith(name string, group int, mesh *geom.Mesh, set features.Set, o InsertOpts) (int64, error) {
	if mesh == nil {
		return 0, fmt.Errorf("shapedb: nil mesh")
	}
	if err := mesh.Validate(); err != nil {
		return 0, fmt.Errorf("shapedb: invalid mesh for %q: %w", name, err)
	}
	if len(set) == 0 {
		return 0, fmt.Errorf("shapedb: empty feature set for %q", name)
	}
	if err := checkFeatures(db.opts, set); err != nil {
		return 0, fmt.Errorf("shapedb: %q: %w", name, err)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.fenced != nil {
		return 0, db.fenced
	}
	id := db.nextID
	if o.ID != 0 {
		if o.ID < 0 {
			return 0, fmt.Errorf("shapedb: explicit id %d for %q must be positive", o.ID, name)
		}
		if _, taken := db.records[o.ID]; taken {
			return 0, fmt.Errorf("shapedb: %q wants id %d: %w", name, o.ID, ErrIDExists)
		}
		id = o.ID
	}
	rec := &Record{
		ID:        id,
		Name:      name,
		Group:     group,
		Mesh:      mesh.Clone(),
		Features:  set.Clone(),
		Degraded:  append([]string(nil), o.Degraded...),
		IdemKey:   o.IdemKey,
		IdemIndex: o.IdemIndex,
		IdemCount: o.IdemCount,
	}
	if rec.IdemKey != "" && rec.IdemCount <= 0 {
		rec.IdemCount = 1
	}
	ref, err := db.logInsert(rec)
	if err != nil {
		return 0, err
	}
	db.applyInsert(rec)
	if db.journal != nil {
		db.entryCount++
		db.setFrame(rec.ID, ref)
	}
	db.wakeCommitWaiters()
	return rec.ID, nil
}

// setFrame records (or replaces) a live record's journal frame location,
// keeping the liveBytes running sum in step. Callers hold the write lock.
func (db *DB) setFrame(id int64, ref frameRef) {
	if old, ok := db.frames[id]; ok {
		db.liveBytes -= old.size
	}
	db.frames[id] = ref
	db.liveBytes += ref.size
}

// dropFrame forgets a record's frame (the record was deleted or
// quarantined; its bytes in the journal are now dead weight).
func (db *DB) dropFrame(id int64) {
	if ref, ok := db.frames[id]; ok {
		db.liveBytes -= ref.size
		delete(db.frames, id)
	}
}

// checkFeatures rejects vectors no search can rank: wrong dimension for
// the database's options, or non-finite coordinates. It guards every path
// a record enters by — insert, replay, replication and import.
func checkFeatures(opts features.Options, set features.Set) error {
	for k, v := range set {
		if want := opts.Dim(k); len(v) != want {
			return fmt.Errorf("feature %v has dimension %d, want %d", k, len(v), want)
		}
		for i, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("feature %v has non-finite coordinate %g at dimension %d", k, x, i)
			}
		}
	}
	return nil
}

// logInsert journals the record and returns the frame it was written to
// (zero ref for in-memory stores). A write or sync failure fences the
// database read-only: the frame was rolled back (or the journal poisoned
// if even that failed), so the insert was never acknowledged and the
// in-memory state still holds exactly the acknowledged history.
func (db *DB) logInsert(rec *Record) (frameRef, error) {
	if db.journal == nil {
		return frameRef{}, nil
	}
	e := entryOf(rec)
	off := db.journal.off
	if err := db.journal.append(e); err != nil {
		return frameRef{}, db.fenceLocked(err)
	}
	if err := db.journal.commitFrom(off); err != nil {
		return frameRef{}, db.fenceLocked(err)
	}
	return frameRef{off: off, size: db.journal.off - off}, nil
}

// entryOf frames a record as its journal insert entry.
func entryOf(rec *Record) *journalEntry {
	return &journalEntry{
		Op:       opInsert,
		ID:       rec.ID,
		Name:     rec.Name,
		Group:    rec.Group,
		Vertices: rec.Mesh.Vertices,
		Faces:    rec.Mesh.Faces,
		Features: encodeFeatures(rec.Features),
		Degraded: rec.Degraded,
		IdemKey:  rec.IdemKey,
		IdemIdx:  rec.IdemIndex,
		IdemCnt:  rec.IdemCount,
	}
}

// applyInsert mutates in-memory state; callers hold the write lock (or are
// single-threaded replay).
func (db *DB) applyInsert(rec *Record) {
	db.version++
	db.records[rec.ID] = rec
	if rec.ID >= db.nextID {
		db.nextID = rec.ID + 1
	}
	if rec.IdemKey != "" {
		m := db.idem[rec.IdemKey]
		if m == nil {
			m = make(map[int]int64)
			db.idem[rec.IdemKey] = m
		}
		m[rec.IdemIndex] = rec.ID
	}
}

// Delete removes a shape. It reports whether the id existed.
func (db *DB) Delete(id int64) (bool, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.fenced != nil {
		return false, db.fenced
	}
	if _, ok := db.records[id]; !ok {
		return false, nil
	}
	if db.journal != nil {
		off := db.journal.off
		if err := db.journal.append(&journalEntry{Op: opDelete, ID: id}); err != nil {
			return false, db.fenceLocked(err)
		}
		if err := db.journal.commitFrom(off); err != nil {
			return false, db.fenceLocked(err)
		}
		db.entryCount++
	}
	db.applyDelete(id)
	db.wakeCommitWaiters()
	return true, nil
}

func (db *DB) applyDelete(id int64) {
	rec, ok := db.records[id]
	if !ok {
		return
	}
	db.version++
	delete(db.records, id)
	db.dropFrame(id)
	if rec.IdemKey != "" {
		if m := db.idem[rec.IdemKey]; m != nil {
			delete(m, rec.IdemIndex)
			if len(m) == 0 {
				delete(db.idem, rec.IdemKey)
			}
		}
	}
}

// IdempotentIDs answers a retried keyed insert: the IDs originally assigned
// under the idempotency key, in batch order. It reports false when the key
// is unknown or its batch is incomplete (a partial insert, or members since
// deleted) — an incomplete answer would hide records from the retrier, so
// the caller re-runs the insert instead.
func (db *DB) IdempotentIDs(key string) ([]int64, bool) {
	if key == "" {
		return nil, false
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	m := db.idem[key]
	if m == nil {
		return nil, false
	}
	var count int
	for _, id := range m {
		count = db.records[id].IdemCount
		break
	}
	if count <= 0 || len(m) != count {
		return nil, false
	}
	ids := make([]int64, count)
	for i := 0; i < count; i++ {
		id, ok := m[i]
		if !ok {
			return nil, false
		}
		ids[i] = id
	}
	return ids, true
}

// Get returns a copy-safe reference to the record with the given id.
// Callers must not mutate the returned record.
func (db *DB) Get(id int64) (*Record, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	rec, ok := db.records[id]
	return rec, ok
}

// Snapshot returns every live record in ascending ID order, copied out
// under one brief read lock. The returned slice is owned by the caller and
// never mutated by the DB; the *Record values are shared and must be
// treated as immutable. Records deleted after the call remain visible in
// the snapshot — iteration sees a consistent point-in-time view and never
// holds the database lock, so snapshot consumers are free to call back
// into the DB (and to be scanned in parallel).
func (db *DB) Snapshot() []*Record {
	recs, _ := db.SnapshotVersion()
	return recs
}

// SnapshotVersion is Snapshot paired with the mutation version the
// snapshot reflects, read under the same lock so the pair is consistent.
// A later Version() call returning the same number means the record set
// has not changed since the snapshot was taken.
func (db *DB) SnapshotVersion() ([]*Record, int64) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	recs := make([]*Record, 0, len(db.records))
	for _, rec := range db.records {
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
	return recs, db.version
}

// Version returns the record-set mutation counter: it increases on every
// insert, delete, quarantine, and replica reset (local, replayed, or
// replicated), and is stable while the record set is unchanged. Derived
// structures snapshot it via SnapshotVersion and compare to detect
// staleness without diffing records.
func (db *DB) Version() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.version
}

// ForEach calls fn for every record in ascending ID order. fn must not
// mutate records. fn must not assume it can call back into the DB: the
// historical contract is that callbacks run as if the read lock were held
// (earlier implementations did hold it across the iteration, where a
// callback touching the DB with a writer queued would deadlock). New code
// should iterate a Snapshot() instead, whose lock-free contract is
// explicit.
func (db *DB) ForEach(fn func(*Record)) {
	for _, r := range db.Snapshot() {
		fn(r)
	}
}

// GetMany returns the records for the given ids under a single read lock,
// aligned with ids (out[i] is nil when ids[i] is not stored). It replaces
// per-id Get loops on read paths that resolve many neighbors at once.
func (db *DB) GetMany(ids []int64) []*Record {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]*Record, len(ids))
	for i, id := range ids {
		out[i] = db.records[id]
	}
	return out
}

// IDs returns every stored ID in ascending order.
func (db *DB) IDs() []int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	ids := make([]int64, 0, len(db.records))
	for id := range db.records {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// GroupOf returns the ground-truth group of a shape (0 when unknown).
func (db *DB) GroupOf(id int64) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if rec, ok := db.records[id]; ok {
		return rec.Group
	}
	return 0
}

// GroupMembers returns the IDs in the given ground-truth group.
func (db *DB) GroupMembers(group int) []int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []int64
	for id, rec := range db.records {
		if rec.Group == group {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// KNN returns the n stored shapes nearest to the query vector under the
// unweighted Euclidean metric, in (distance, id) order, by an exact linear
// scan of the live records carrying the kind (none carrying it: an empty
// answer). Searches go through the engine's column snapshots instead; KNN
// stays as a plain reference.
func (db *DB) KNN(k features.Kind, query features.Vector, n int) ([]rtree.Neighbor, error) {
	if want := db.opts.Dim(k); len(query) != want {
		return nil, fmt.Errorf("shapedb: query dimension %d, feature %v dimension %d", len(query), k, want)
	}
	db.mu.RLock()
	var out []rtree.Neighbor
	for id, rec := range db.records {
		if v, ok := rec.Features[k]; ok {
			sum := 0.0
			for d := range v {
				diff := query[d] - v[d]
				sum += diff * diff
			}
			out = append(out, rtree.Neighbor{ID: id, Dist: math.Sqrt(sum)})
		}
	}
	db.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].ID < out[j].ID
	})
	if n < len(out) {
		out = out[:max(n, 0)]
	}
	return out, nil
}

// MaxID returns the highest record id ever assigned (0 for a fresh
// database), including ids whose records were since deleted — the safe
// seed for an external id allocator.
func (db *DB) MaxID() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.nextID - 1
}

// IndexStats returns (0, 0, live rows carrying the kind). The database
// keeps no index of its own — the §2.3 index is the column snapshot's
// bulk-loaded tree — so there are no node accesses or height to report;
// the signature is kept for callers that still read the row count.
func (db *DB) IndexStats(k features.Kind) (accesses, height, count int) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, rec := range db.records {
		if _, ok := rec.Features[k]; ok {
			count++
		}
	}
	return 0, 0, count
}

// ErrCompactionInProgress is returned by Compact when another compaction
// is already running (the admin trigger racing the policy timer); the
// caller's work is being done by the in-flight call.
var ErrCompactionInProgress = errors.New("shapedb: compaction already in progress")

// Compact rewrites the journal to contain exactly the live records,
// dropping deleted history: the live set is written to a temp file, synced,
// renamed over the journal, and the parent directory is synced so the
// rename itself survives a crash. No-op for in-memory databases. At most
// one compaction runs at a time; a concurrent call returns
// ErrCompactionInProgress immediately rather than queueing a redundant
// rewrite. On failure the original journal stays authoritative (a stale
// temp file is discarded by the next Open); if the journal handle cannot
// be restored the database degrades to read-only — reads keep working,
// writes return the fence error.
//
// Compaction is also the heal path out of the read-only fence (and out of
// a poisoned journal): it writes a brand-new file from the in-memory
// state — which holds exactly the acknowledged writes, because a failed
// append is rolled back before it is ever applied — and atomically
// renames it into place, so it deliberately proceeds when the journal is
// fenced or poisoned. Full success clears the fence.
func (db *DB) Compact() error {
	if !db.compacting.CompareAndSwap(false, true) {
		return ErrCompactionInProgress
	}
	defer db.compacting.Store(false)
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.journal == nil {
		return nil
	}
	path := filepath.Join(db.dir, journalName)
	tmp := filepath.Join(db.dir, compactName)
	nj, err := newJournal(db.fsys, tmp)
	if err != nil {
		return err
	}
	ids := make([]int64, 0, len(db.records))
	for id := range db.records {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	newFrames := make(map[int64]frameRef, len(ids))
	for _, id := range ids {
		rec := db.records[id]
		e := entryOf(rec)
		off := nj.off
		if err := nj.append(e); err != nil {
			nj.close()
			db.fsys.Remove(tmp)
			return err
		}
		newFrames[id] = frameRef{off: off, size: nj.off - off}
	}
	if err := nj.sync(); err != nil {
		nj.close()
		db.fsys.Remove(tmp)
		return err
	}
	if err := nj.close(); err != nil {
		db.fsys.Remove(tmp)
		return err
	}
	if err := db.journal.close(); err != nil {
		db.fsys.Remove(tmp)
		return err
	}
	// From here the old handle is gone: any failure must leave db.journal
	// non-nil (reopened or poisoned), never nil — nil means "in-memory"
	// and would silently stop journaling a durable store.
	if err := db.fsys.Rename(tmp, path); err != nil {
		db.fsys.Remove(tmp)
		db.reopenJournal(path)
		return fmt.Errorf("shapedb: compaction rename: %w", err)
	}
	// The rename landed: the file at path is the compacted live set, so
	// the frame map switches over even if the directory sync below fails.
	db.adoptFrames(newFrames)
	if err := db.fsys.SyncDir(db.dir); err != nil {
		// The rename happened but may not be durable; the content at
		// path is the compacted live set either way, so keep serving
		// from it and surface the error.
		db.reopenJournal(path)
		return fmt.Errorf("shapedb: syncing directory after compaction: %w", err)
	}
	db.reopenJournal(path)
	if db.journal.failed != nil {
		return db.journal.failed
	}
	// The journal is a freshly-written, synced, renamed file and the append
	// handle is live again: the write path is whole, so a read-only fence
	// from an earlier append failure is healed.
	db.fenced = nil
	return nil
}

// adoptFrames switches the frame map to a freshly compacted journal's
// layout and resets the dead-weight counters the compaction policy reads.
// The replication epoch is regenerated here: byte offsets into the old
// journal file mean nothing against the rewrite, so standbys streaming at
// the old epoch are told to re-bootstrap rather than silently fed bytes
// from a different file.
func (db *DB) adoptFrames(newFrames map[int64]frameRef) {
	db.frames = newFrames
	db.liveBytes = 0
	for _, ref := range newFrames {
		db.liveBytes += ref.size
	}
	db.entryCount = len(newFrames)
	db.dirtyQuarantine = 0
	db.replEpoch = newReplEpoch()
	db.wakeCommitWaiters()
}

// reopenJournal re-establishes the append handle at path, poisoning the
// journal and fencing the database read-only when the open fails.
func (db *DB) reopenJournal(path string) {
	j, err := openJournal(db.fsys, path)
	if err != nil {
		db.journal = poisonedJournal(err)
		db.fenceLocked(err)
		return
	}
	db.journal = j
}
