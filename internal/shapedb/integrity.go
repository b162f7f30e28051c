package shapedb

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"sort"

	"threedess/internal/features"
	"threedess/internal/geom"
)

// This file holds the integrity surface the self-healing maintenance
// subsystem (internal/scrub) is built on: per-record re-verification
// against the on-disk journal frame, quarantine of records that fail,
// and the journal statistics the automatic compaction policy reads.
// Recovery at Open proves the journal was intact *once*; these
// primitives let a long-running process keep proving it.

// ScrubState classifies what re-verifying one record found.
type ScrubState uint8

const (
	// ScrubClean: the in-memory record satisfies every invariant and its
	// journal frame re-reads byte-identical (CRC and content match).
	ScrubClean ScrubState = iota
	// ScrubGone: the record no longer exists (deleted or already
	// quarantined since the scrub pass snapshotted it) — not a finding.
	ScrubGone
	// ScrubBitRot: the frame is present but wrong — CRC mismatch,
	// undecodable payload, a header disagreeing with the recorded frame
	// size, or decoded content that differs from the in-memory record.
	ScrubBitRot
	// ScrubMissingFrame: the record has no frame in the journal, or the
	// frame's bytes cannot be read back at all.
	ScrubMissingFrame
	// ScrubInvariant: the in-memory record itself violates an invariant
	// the insert path enforces (feature dimension/finiteness, mesh
	// structure) — in-process corruption rather than disk rot.
	ScrubInvariant
)

func (s ScrubState) String() string {
	switch s {
	case ScrubClean:
		return "clean"
	case ScrubGone:
		return "gone"
	case ScrubBitRot:
		return "bit-rot"
	case ScrubMissingFrame:
		return "missing-frame"
	case ScrubInvariant:
		return "invariant-violation"
	}
	return fmt.Sprintf("scrub(%d)", uint8(s))
}

// MarshalText renders the state for JSON reports.
func (s ScrubState) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses the textual form back (admin API clients decode
// the reports they fetch).
func (s *ScrubState) UnmarshalText(text []byte) error {
	for c := ScrubClean; c <= ScrubInvariant; c++ {
		if c.String() == string(text) {
			*s = c
			return nil
		}
	}
	return fmt.Errorf("shapedb: unknown scrub state %q", text)
}

// ScrubFinding is the result of re-verifying one record.
type ScrubFinding struct {
	ID     int64      `json:"id"`
	State  ScrubState `json:"state"`
	Detail string     `json:"detail,omitempty"`
}

// VerifyRecord re-verifies one stored record: the in-memory invariants
// the insert path enforced (feature dimensions, finiteness, mesh
// structure), and — for durable stores — that the record's journal frame
// still reads back with a valid CRC and decodes to exactly the record
// being served. It holds the read lock for the duration (including the
// frame read), which keeps the frame map consistent with the journal
// file even while compaction is racing; frames are small, so the hold is
// brief and shared with concurrent queries.
func (db *DB) VerifyRecord(id int64) ScrubFinding {
	db.mu.RLock()
	defer db.mu.RUnlock()
	f := ScrubFinding{ID: id}
	rec, ok := db.records[id]
	if !ok {
		f.State = ScrubGone
		return f
	}
	if err := checkFeatures(db.opts, rec.Features); err != nil {
		f.State, f.Detail = ScrubInvariant, err.Error()
		return f
	}
	if rec.Mesh == nil {
		f.State, f.Detail = ScrubInvariant, "nil mesh"
		return f
	}
	if err := rec.Mesh.Validate(); err != nil {
		f.State, f.Detail = ScrubInvariant, err.Error()
		return f
	}
	if db.journal == nil {
		f.State = ScrubClean
		return f
	}
	ref, ok := db.frames[id]
	if !ok {
		f.State, f.Detail = ScrubMissingFrame, "no journal frame recorded"
		return f
	}
	frame, err := db.readFrame(ref)
	if err != nil {
		f.State, f.Detail = ScrubMissingFrame, err.Error()
		return f
	}
	if state, detail := checkFrame(frame, rec); state != ScrubClean {
		f.State, f.Detail = state, detail
		return f
	}
	f.State = ScrubClean
	return f
}

// readFrame reads one frame's bytes from the journal file through a
// fresh descriptor, so the append handle's position is never disturbed.
func (db *DB) readFrame(ref frameRef) ([]byte, error) {
	path := filepath.Join(db.dir, journalName)
	jf, err := db.fsys.Open(path)
	if err != nil {
		return nil, fmt.Errorf("opening journal: %w", err)
	}
	defer jf.Close()
	if _, err := jf.Seek(ref.off, io.SeekStart); err != nil {
		return nil, fmt.Errorf("seeking to frame: %w", err)
	}
	buf := make([]byte, ref.size)
	if _, err := io.ReadFull(jf, buf); err != nil {
		return nil, fmt.Errorf("reading frame: %w", err)
	}
	return buf, nil
}

// checkFrame verifies one framed journal record against the in-memory
// record it backs: header sanity, CRC, decodability, and full content
// agreement (a CRC-valid frame that differs from memory means the
// in-memory copy drifted, which is just as unservable as disk rot).
func checkFrame(frame []byte, rec *Record) (ScrubState, string) {
	if len(frame) < 8 {
		return ScrubBitRot, "frame shorter than header"
	}
	size := binary.LittleEndian.Uint32(frame[0:])
	want := binary.LittleEndian.Uint32(frame[4:])
	if int64(size) != int64(len(frame))-8 {
		return ScrubBitRot, fmt.Sprintf("frame header claims %d payload bytes, frame holds %d", size, len(frame)-8)
	}
	payload := frame[8:]
	if got := crc32.ChecksumIEEE(payload); got != want {
		return ScrubBitRot, fmt.Sprintf("CRC mismatch: frame %08x, payload %08x", want, got)
	}
	var e journalEntry
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&e); err != nil {
		return ScrubBitRot, "CRC matches but payload does not decode: " + err.Error()
	}
	if e.Op != opInsert || e.ID != rec.ID {
		return ScrubBitRot, fmt.Sprintf("frame holds op=%d id=%d, want insert of %d", e.Op, e.ID, rec.ID)
	}
	if e.Name != rec.Name || e.Group != rec.Group {
		return ScrubBitRot, "frame metadata differs from memory"
	}
	set, err := decodeFeatures(e.Features)
	if err != nil {
		return ScrubBitRot, "frame features undecodable: " + err.Error()
	}
	if !featureSetsEqual(set, rec.Features) {
		return ScrubBitRot, "frame feature vectors differ from memory"
	}
	if !meshEqual(e.Vertices, e.Faces, rec) {
		return ScrubBitRot, "frame geometry differs from memory"
	}
	return ScrubClean, ""
}

func featureSetsEqual(a, b features.Set) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok || len(av) != len(bv) {
			return false
		}
		for i := range av {
			if av[i] != bv[i] {
				return false
			}
		}
	}
	return true
}

func meshEqual(vertices []geom.Vec3, faces [][3]int, rec *Record) bool {
	if len(vertices) != len(rec.Mesh.Vertices) || len(faces) != len(rec.Mesh.Faces) {
		return false
	}
	for i, v := range vertices {
		if v != rec.Mesh.Vertices[i] {
			return false
		}
	}
	for i, f := range faces {
		if f != rec.Mesh.Faces[i] {
			return false
		}
	}
	return true
}

// FrameSpan reports where a record's insert frame lives in the journal
// file (false for in-memory stores or unknown ids). It exists for
// integrity tooling and fault-injection tests that need to corrupt a
// specific record's bytes.
func (db *DB) FrameSpan(id int64) (off, size int64, ok bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	ref, found := db.frames[id]
	return ref.off, ref.size, found
}

// QuarantineInfo describes one record pulled out of service.
type QuarantineInfo struct {
	ID     int64      `json:"id"`
	Name   string     `json:"name"`
	State  ScrubState `json:"state"`
	Detail string     `json:"detail,omitempty"`
}

// Quarantine removes a record from service — out of the record map, so
// no query can return it — and remembers why. The
// journal gets a best-effort delete entry (ignored if the journal is
// poisoned); the authoritative heal is the next compaction, which
// rewrites the journal without the record and clears the rotten frame
// from disk. It reports whether the id was live.
func (db *DB) Quarantine(id int64, state ScrubState, detail string) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	rec, ok := db.records[id]
	if !ok {
		return false
	}
	if db.journal != nil && db.fenced == nil {
		// A failed append only means the next restart replays the insert
		// (and re-quarantines it if still rotten); service-side removal
		// below does not depend on it. commitFrom rolls a failed sync back
		// rather than poisoning, and a fenced journal is skipped outright —
		// quarantine must keep pulling rotten records out of service even
		// when the disk is full.
		off := db.journal.off
		if err := db.journal.append(&journalEntry{Op: opDelete, ID: id}); err == nil {
			if db.journal.commitFrom(off) == nil {
				db.entryCount++
			}
		}
	}
	db.applyDelete(id)
	db.quarantined[id] = QuarantineInfo{ID: id, Name: rec.Name, State: state, Detail: detail}
	db.dirtyQuarantine++
	db.wakeCommitWaiters()
	return true
}

// Quarantined returns every quarantined record's info, ascending by id.
func (db *DB) Quarantined() []QuarantineInfo {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]QuarantineInfo, 0, len(db.quarantined))
	for _, info := range db.quarantined {
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// IsQuarantined reports whether id has been quarantined.
func (db *DB) IsQuarantined(id int64) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	_, ok := db.quarantined[id]
	return ok
}

// JournalStats is the compaction policy's view of journal dead weight.
type JournalStats struct {
	// Durable is false for in-memory stores (everything else is zero).
	Durable bool `json:"durable"`
	// JournalBytes is the journal file size; LiveBytes the portion
	// occupied by live records' frames. Their ratio is the write
	// amplification automatic compaction triggers on.
	JournalBytes int64 `json:"journal_bytes"`
	LiveBytes    int64 `json:"live_bytes"`
	// LiveRecords / JournalEntries / DeadEntries count records served,
	// frames in the file, and frames that are dead weight (deletes plus
	// the inserts they superseded, skipped records, quarantines).
	LiveRecords    int `json:"live_records"`
	JournalEntries int `json:"journal_entries"`
	DeadEntries    int `json:"dead_entries"`
	// Quarantined counts records currently out of service;
	// UnhealedQuarantine those whose (possibly rotten) frames are still
	// in the journal file — nonzero until a compaction rewrites it.
	Quarantined        int `json:"quarantined"`
	UnhealedQuarantine int `json:"unhealed_quarantine"`
	// ReadOnly reports the write fence: a journal append or sync failed
	// (disk full), the failed frame was rolled back, and every mutation is
	// refused until a successful compaction heals the fence. Reads keep
	// serving throughout. ReadOnlyReason carries the fencing cause.
	ReadOnly       bool   `json:"read_only,omitempty"`
	ReadOnlyReason string `json:"read_only_reason,omitempty"`
}

// Amplification returns JournalBytes/LiveBytes (0 when nothing live).
func (s JournalStats) Amplification() float64 {
	if s.LiveBytes <= 0 {
		if s.JournalBytes > 0 {
			return float64(s.JournalBytes)
		}
		return 0
	}
	return float64(s.JournalBytes) / float64(s.LiveBytes)
}

// Stats returns the current journal statistics.
func (db *DB) Stats() JournalStats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	st := JournalStats{
		LiveRecords:        len(db.records),
		Quarantined:        len(db.quarantined),
		UnhealedQuarantine: db.dirtyQuarantine,
	}
	if db.fenced != nil {
		st.ReadOnly = true
		st.ReadOnlyReason = db.fenced.Error()
	}
	if db.journal == nil {
		return st
	}
	st.Durable = true
	st.JournalBytes = db.journal.off
	st.LiveBytes = db.liveBytes
	st.JournalEntries = db.entryCount
	st.DeadEntries = db.entryCount - len(db.frames)
	return st
}
