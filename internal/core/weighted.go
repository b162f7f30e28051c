package core

import (
	"fmt"

	"threedess/internal/colstore"
)

// ScanMode is what a weighted search asks of its answer. Every search,
// weighted or not, runs on the same substrate — one blocked scan over the
// columnar store's quantized columns (internal/colstore) — and the mode
// only says whether survivors of that filter are re-ranked by the exact
// kernel. An unweighted search always is: it runs as ScanExact.
type ScanMode int

const (
	// ScanAuto, the zero value, asks for the exact answer: k-NN on the
	// snapshot's bulk-loaded R-tree seeds a pruning bound, the quantized
	// columns filter rows whose lower bound already exceeds it, and only
	// survivors reach the exact Equation-4.3 kernel. A server under brownout may substitute
	// ScanCoarse for it.
	ScanAuto ScanMode = iota
	// ScanExact is the same search as ScanAuto; on the wire it additionally
	// opts the request out of the server's coarse brownout tier.
	ScanExact
	// ScanCoarse serves the filter stage AS the answer — rows ranked by
	// their quantized lower bounds with the exact re-rank skipped. Results
	// are approximate (distances read low, so similarities read high, and
	// ranking may differ near ties); it exists for brownout serving, where
	// the caller must mark the response degraded.
	ScanCoarse
)

func (m ScanMode) String() string {
	switch m {
	case ScanAuto:
		return "auto"
	case ScanExact:
		return "exact"
	case ScanCoarse:
		return "coarse"
	default:
		return fmt.Sprintf("ScanMode(%d)", int(m))
	}
}

// ParseScanMode maps the wire values of "scan_mode" onto a ScanMode. The
// "two-stage" spellings name the way every exact search now executes, so
// they parse as ScanAuto.
func ParseScanMode(s string) (ScanMode, error) {
	switch s {
	case "", "auto", "two-stage", "twostage", "two_stage":
		return ScanAuto, nil
	case "exact":
		return ScanExact, nil
	case "coarse":
		return ScanCoarse, nil
	default:
		return ScanAuto, fmt.Errorf("core: unknown scan mode %q (want auto, exact, two-stage, or coarse)", s)
	}
}

// ColStore exposes the engine's columnar store manager so servers can run
// its Watch loop and tests can inspect staleness behavior.
func (e *Engine) ColStore() *colstore.Manager { return e.cstore }
