// Package scrub is the self-healing maintenance layer over a shapedb.DB:
// a background integrity scrubber that re-verifies every record against
// its on-disk journal frame and quarantines what fails, and a compaction
// policy engine that rewrites the journal when write amplification, dead
// entries, or unhealed quarantines warrant it. One Maintainer owns both
// loops; each also runs on demand (ScrubOnce / TriggerCompact) for the
// admin endpoint.
//
// The division of labor: shapedb knows *how* to verify, quarantine, and
// compact; this package decides *when*, at what rate, and keeps the
// reports.
package scrub

import (
	"context"
	"errors"
	"sync"
	"time"

	"threedess/internal/retry"
	"threedess/internal/shapedb"
	"threedess/internal/workpool"
)

// Config tunes the two maintenance loops. A zero interval disables the
// corresponding background loop (the on-demand entry points still work).
type Config struct {
	// ScrubInterval is the pause between full scrub passes.
	ScrubInterval time.Duration
	// ScrubRate caps record verifications per second across all scrub
	// workers, so a pass trickles along under production traffic instead
	// of monopolizing the journal file. <= 0 means unthrottled.
	ScrubRate int
	// Workers is the scrub fan-out (resolved via workpool.Resolve).
	Workers int

	// CompactCheckInterval is the pause between compaction-policy
	// evaluations (the check is cheap; actual compaction only runs when
	// a trigger fires).
	CompactCheckInterval time.Duration
	// CompactRatio triggers compaction when JournalBytes/LiveBytes
	// reaches it and there is at least one dead entry to reclaim.
	// <= 0 disables the ratio trigger.
	CompactRatio float64
	// CompactMinDead triggers compaction when the journal carries at
	// least this many dead (deleted or superseded) entries. <= 0
	// disables the count trigger.
	CompactMinDead int
	// CompactMinInterval is the minimum spacing between automatic
	// compactions — backoff so a workload hovering at the trigger does
	// not compact on every check. Quarantine healing ignores it: a
	// rotten frame left mid-journal would truncate everything behind it
	// on the next restart, so it is rewritten away promptly.
	CompactMinInterval time.Duration

	// Logf receives one line per maintenance event (nil = silent).
	Logf func(format string, args ...any)
}

// DefaultConfig is the production tuning used by cmd/3dess.
func DefaultConfig() Config {
	return Config{
		ScrubInterval:        5 * time.Minute,
		ScrubRate:            2000,
		CompactCheckInterval: time.Minute,
		CompactRatio:         2.0,
		CompactMinDead:       4096,
		CompactMinInterval:   5 * time.Minute,
	}
}

// ScrubReport summarizes one full scrub pass.
type ScrubReport struct {
	StartedAt  time.Time `json:"started_at"`
	FinishedAt time.Time `json:"finished_at"`
	// Checked counts records verified; Clean those that passed. Gone
	// counts records deleted between snapshot and verification (not a
	// finding).
	Checked int `json:"checked"`
	Clean   int `json:"clean"`
	Gone    int `json:"gone"`
	// Findings lists every record that failed verification; Quarantined
	// counts how many of them were newly pulled from service.
	Findings    []shapedb.ScrubFinding `json:"findings,omitempty"`
	Quarantined int                    `json:"quarantined"`
	// Interrupted is set when the pass stopped early (shutdown).
	Interrupted bool `json:"interrupted,omitempty"`
}

// CompactReport records one compaction attempt and why it ran.
type CompactReport struct {
	At      time.Time `json:"at"`
	Trigger string    `json:"trigger"` // "ratio", "dead-entries", "quarantine-heal", "readonly-heal", "manual"
	// Before/After are the journal stats around the rewrite.
	Before shapedb.JournalStats `json:"before"`
	After  shapedb.JournalStats `json:"after"`
	// Skipped is set when another compaction was already running.
	Skipped bool   `json:"skipped,omitempty"`
	Error   string `json:"error,omitempty"`
}

// Status is the full maintenance picture served by the admin endpoint.
type Status struct {
	Running     bool           `json:"running"`
	ScrubRuns   int            `json:"scrub_runs"`
	CompactRuns int            `json:"compact_runs"`
	LastScrub   *ScrubReport   `json:"last_scrub,omitempty"`
	LastCompact *CompactReport `json:"last_compact,omitempty"`
	// Recovery is the journal replay report from startup, kept so the
	// operator can inspect what (if anything) recovery discarded long
	// after the log line scrolled away.
	Recovery    *shapedb.RecoveryReport  `json:"recovery,omitempty"`
	Journal     shapedb.JournalStats     `json:"journal"`
	Quarantined []shapedb.QuarantineInfo `json:"quarantined,omitempty"`
}

// Maintainer runs the maintenance loops over one DB.
type Maintainer struct {
	db  *shapedb.DB
	cfg Config

	mu            sync.Mutex
	running       bool
	scrubRuns     int
	compactRuns   int
	lastScrub     *ScrubReport
	lastCompact   *CompactReport
	lastCompactAt time.Time

	cancel context.CancelFunc
	done   chan struct{}
}

// New builds a Maintainer; call Start to launch the background loops.
func New(db *shapedb.DB, cfg Config) *Maintainer {
	return &Maintainer{db: db, cfg: cfg}
}

func (m *Maintainer) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}

// Start launches the background loops. Each loop sleeps its interval
// *between* passes (a slow scrub does not pile up behind its ticker).
// Loops with a zero interval are not started.
func (m *Maintainer) Start(ctx context.Context) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.running {
		return
	}
	ctx, m.cancel = context.WithCancel(ctx)
	m.done = make(chan struct{})
	m.running = true
	go m.run(ctx)
}

// Stop cancels the loops and waits for in-flight passes to finish.
func (m *Maintainer) Stop() {
	m.mu.Lock()
	if !m.running {
		m.mu.Unlock()
		return
	}
	cancel, done := m.cancel, m.done
	m.mu.Unlock()
	cancel()
	<-done
	m.mu.Lock()
	m.running = false
	m.mu.Unlock()
}

func (m *Maintainer) run(ctx context.Context) {
	defer close(m.done)
	var wg sync.WaitGroup
	loop := func(interval time.Duration, pass func(context.Context)) {
		if interval <= 0 {
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.NewTimer(interval)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
				}
				pass(ctx)
				t.Reset(interval)
			}
		}()
	}
	loop(m.cfg.ScrubInterval, func(ctx context.Context) { m.ScrubOnce(ctx) })
	loop(m.cfg.CompactCheckInterval, func(context.Context) { m.CompactIfNeeded() })
	wg.Wait()
}

// rateLimiter spaces permits interval apart across any number of
// goroutines; the arithmetic (next-slot bookkeeping under a mutex) keeps
// the aggregate rate exact without a token-refill goroutine.
type rateLimiter struct {
	mu       sync.Mutex
	interval time.Duration
	next     time.Time
}

func newRateLimiter(perSecond int) *rateLimiter {
	if perSecond <= 0 {
		return nil
	}
	return &rateLimiter{interval: time.Second / time.Duration(perSecond)}
}

func (rl *rateLimiter) wait(ctx context.Context) error {
	if rl == nil {
		return ctx.Err()
	}
	rl.mu.Lock()
	now := time.Now()
	if rl.next.Before(now) {
		rl.next = now
	}
	d := rl.next.Sub(now)
	rl.next = rl.next.Add(rl.interval)
	rl.mu.Unlock()
	if d <= 0 {
		return ctx.Err()
	}
	return retry.Sleep(ctx, d)
}

// ScrubOnce runs one full integrity pass: every record is re-verified
// against its journal frame (CRC, decode, content comparison) plus the
// in-memory invariants, sharded across Workers goroutines under the
// shared rate cap. Records that fail are quarantined — removed from
// serving — and reported. The returned report is also retained for
// Status.
func (m *Maintainer) ScrubOnce(ctx context.Context) *ScrubReport {
	rep := &ScrubReport{StartedAt: time.Now()}
	ids := m.db.IDs()
	limiter := newRateLimiter(m.cfg.ScrubRate)

	var mu sync.Mutex
	err := workpool.ForEachNCtx(ctx, m.cfg.Workers, len(ids), func(i int) {
		if limiter.wait(ctx) != nil {
			return
		}
		f := m.db.VerifyRecord(ids[i])
		mu.Lock()
		defer mu.Unlock()
		rep.Checked++
		switch f.State {
		case shapedb.ScrubClean:
			rep.Clean++
		case shapedb.ScrubGone:
			// Deleted between snapshot and verification — not damage.
			rep.Gone++
		default:
			rep.Findings = append(rep.Findings, f)
			if m.db.Quarantine(f.ID, f.State, f.Detail) {
				rep.Quarantined++
				m.logf("scrub: quarantined record %d: %s (%s)", f.ID, f.State, f.Detail)
			}
		}
	})
	rep.Interrupted = err != nil
	rep.FinishedAt = time.Now()
	if len(rep.Findings) > 0 || rep.Interrupted {
		m.logf("scrub: pass over %d records: %d clean, %d findings, %d quarantined, interrupted=%v",
			rep.Checked, rep.Clean, len(rep.Findings), rep.Quarantined, rep.Interrupted)
	}

	m.mu.Lock()
	m.scrubRuns++
	m.lastScrub = rep
	m.mu.Unlock()
	return rep
}

// CompactIfNeeded evaluates the compaction policy and, when a trigger
// fires, runs compaction online (readers and writers keep going; only
// the final swap blocks briefly). Returns the report when a compaction
// was attempted, nil when no trigger fired.
func (m *Maintainer) CompactIfNeeded() *CompactReport {
	stats := m.db.Stats()
	if !stats.Durable {
		return nil
	}
	trigger := ""
	switch {
	case stats.ReadOnly:
		// Healing the write fence: a failed append/sync (typically disk
		// full) fenced the DB read-only. Compaction rewrites the journal
		// from the acknowledged in-memory state — usually much smaller
		// than the dead-entry-laden log that filled the disk — and on
		// success lifts the fence, restoring write service without a
		// restart.
		trigger = "readonly-heal"
	case stats.UnhealedQuarantine > 0:
		// Healing: rewrite the journal from the intact in-memory copies
		// so the rotten frame cannot truncate the log on restart.
		trigger = "quarantine-heal"
	case m.cfg.CompactMinDead > 0 && stats.DeadEntries >= m.cfg.CompactMinDead:
		trigger = "dead-entries"
	case m.cfg.CompactRatio > 0 && stats.DeadEntries > 0 && stats.Amplification() >= m.cfg.CompactRatio:
		trigger = "ratio"
	default:
		return nil
	}
	if trigger != "quarantine-heal" && trigger != "readonly-heal" && m.cfg.CompactMinInterval > 0 {
		m.mu.Lock()
		tooSoon := !m.lastCompactAt.IsZero() && time.Since(m.lastCompactAt) < m.cfg.CompactMinInterval
		m.mu.Unlock()
		if tooSoon {
			return nil
		}
	}
	return m.compact(trigger, stats)
}

// TriggerCompact compacts immediately, bypassing the policy — the admin
// endpoint's manual trigger.
func (m *Maintainer) TriggerCompact() *CompactReport {
	return m.compact("manual", m.db.Stats())
}

func (m *Maintainer) compact(trigger string, before shapedb.JournalStats) *CompactReport {
	rep := &CompactReport{At: time.Now(), Trigger: trigger, Before: before}
	err := m.db.Compact()
	rep.After = m.db.Stats()
	switch {
	case errors.Is(err, shapedb.ErrCompactionInProgress):
		rep.Skipped = true
	case err != nil:
		rep.Error = err.Error()
		m.logf("compact(%s): failed: %v", trigger, err)
	default:
		m.logf("compact(%s): journal %d -> %d bytes, %d dead entries reclaimed",
			trigger, before.JournalBytes, rep.After.JournalBytes, before.DeadEntries)
	}
	m.mu.Lock()
	m.compactRuns++
	m.lastCompact = rep
	if err == nil {
		m.lastCompactAt = rep.At
	}
	m.mu.Unlock()
	return rep
}

// Status reports the current maintenance state for the admin endpoint.
func (m *Maintainer) Status() Status {
	m.mu.Lock()
	st := Status{
		Running:     m.running,
		ScrubRuns:   m.scrubRuns,
		CompactRuns: m.compactRuns,
		LastScrub:   m.lastScrub,
		LastCompact: m.lastCompact,
	}
	m.mu.Unlock()
	st.Recovery = m.db.Recovery()
	st.Journal = m.db.Stats()
	st.Quarantined = m.db.Quarantined()
	return st
}
