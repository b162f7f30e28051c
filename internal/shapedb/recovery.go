package shapedb

import "fmt"

// TailState classifies what replay found after the last intact journal
// frame.
type TailState uint8

const (
	// TailClean: the journal ends exactly at a frame boundary.
	TailClean TailState = iota
	// TailTornHeader: fewer than 8 header bytes follow the last intact
	// frame — the classic crash-mid-append signature.
	TailTornHeader
	// TailTornPayload: a full header whose claimed payload extends past
	// the end of the file — the append was cut off mid-payload.
	TailTornPayload
	// TailBadChecksum: a complete frame whose payload fails CRC32 —
	// bit rot or an overwritten region rather than a simple short write.
	TailBadChecksum
	// TailImplausibleLength: a header claiming a payload larger than any
	// real append produces; the header bytes themselves are garbage.
	TailImplausibleLength
	// TailUndecodable: the CRC matched but the gob payload would not
	// decode — a frame written by an incompatible or corrupted encoder.
	TailUndecodable
)

func (s TailState) String() string {
	switch s {
	case TailClean:
		return "clean"
	case TailTornHeader:
		return "torn header"
	case TailTornPayload:
		return "torn payload"
	case TailBadChecksum:
		return "bad checksum"
	case TailImplausibleLength:
		return "implausible length"
	case TailUndecodable:
		return "undecodable payload"
	}
	return fmt.Sprintf("tail(%d)", uint8(s))
}

// MarshalText renders the state by name so JSON reports stay readable.
func (s TailState) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses the textual form back (admin API clients decode
// the reports they fetch).
func (s *TailState) UnmarshalText(text []byte) error {
	for c := TailClean; c <= TailUndecodable; c++ {
		if c.String() == string(text) {
			*s = c
			return nil
		}
	}
	return fmt.Errorf("shapedb: unknown tail state %q", text)
}

// RecoveryReport describes what journal replay recovered and what it had
// to discard. Open returns the database even when bytes were discarded
// (degraded recovery); callers decide whether a non-clean report is worth
// refusing service over, and the 3dess server logs it at startup.
type RecoveryReport struct {
	// Entries is the number of intact entries replayed; Inserts and
	// Deletes break it down by operation.
	Entries, Inserts, Deletes int
	// TotalBytes is the journal size found on disk; GoodBytes is the
	// length of the intact prefix. DiscardedBytes = TotalBytes − GoodBytes
	// is the garbage that followed it.
	TotalBytes, GoodBytes, DiscardedBytes int64
	// Tail classifies the first bad frame (TailClean when none).
	Tail TailState
	// TornTail is true when the garbage is consistent with a single
	// append cut off by a crash: a short header or payload reaching the
	// end of the file. False for mid-file corruption — an intact-looking
	// region that fails CRC or decode with further data behind it, which
	// means entries beyond the corruption were lost too.
	TornTail bool
	// Quarantined is the path the discarded tail was copied to before the
	// journal was truncated ("" when nothing was discarded).
	Quarantined string
	// SkippedRecords counts intact, decodable insert entries that were
	// nevertheless refused at replay because their feature vectors no
	// search can rank (wrong dimension for the database's options, or
	// non-finite coordinates). Applying such a record would poison the
	// live-row box and column grids of every future query, so replay drops
	// it instead.
	SkippedRecords int
}

// finish seals the report once replay stops, deriving the discard span and
// the torn-tail classification. badFrameEnd is the file offset just past
// the frame replay rejected (0 when the frame was never fully read).
func (r *RecoveryReport) finish(tail TailState, badFrameEnd int64) {
	r.Tail = tail
	r.DiscardedBytes = r.TotalBytes - r.GoodBytes
	switch tail {
	case TailClean:
		r.TornTail = false
	case TailTornHeader, TailTornPayload:
		// A short read can only happen at the end of the file.
		r.TornTail = true
	case TailBadChecksum, TailUndecodable:
		// The bad frame was fully present. If it reaches EOF exactly it
		// is the torn final append (header durable, payload half-written
		// then padded by nothing); anything after it means mid-file
		// corruption, so entries beyond the bad frame were lost too.
		r.TornTail = badFrameEnd == r.TotalBytes
	case TailImplausibleLength:
		r.TornTail = false
	}
}

// Degraded reports whether recovery discarded any bytes.
func (r *RecoveryReport) Degraded() bool { return r.DiscardedBytes > 0 }

// String renders the report for startup logs.
func (r *RecoveryReport) String() string {
	if r == nil {
		return "in-memory (no journal)"
	}
	skipped := ""
	if r.SkippedRecords > 0 {
		skipped = fmt.Sprintf(", %d invalid records skipped", r.SkippedRecords)
	}
	if !r.Degraded() {
		return fmt.Sprintf("clean: %d entries (%d inserts, %d deletes), %d bytes%s",
			r.Entries, r.Inserts, r.Deletes, r.GoodBytes, skipped)
	}
	kind := "mid-file corruption"
	if r.TornTail {
		kind = "torn tail"
	}
	return fmt.Sprintf("degraded: %d entries (%d inserts, %d deletes) recovered%s, %d/%d bytes discarded (%s: %s), quarantined to %s",
		r.Entries, r.Inserts, r.Deletes, skipped, r.DiscardedBytes, r.TotalBytes, kind, r.Tail, r.Quarantined)
}
