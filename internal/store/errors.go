package store

import (
	"errors"

	"approxcode/internal/chaos"
	"approxcode/internal/core"
)

// Typed error taxonomy of the storage layer. Everything the store
// returns wraps one of these sentinels, so callers dispatch with
// errors.Is instead of string matching. ErrNodeUnavailable, ErrTimeout,
// ErrInvalid and ErrUnrecoverable are aliases of the chaos and core
// sentinels, so a single errors.Is check works across the whole stack.
var (
	// ErrExists: the object name is already stored.
	ErrExists = errors.New("store: object already exists")
	// ErrNotFound: no such object or segment.
	ErrNotFound = errors.New("store: object not found")
	// ErrUnavailable: the requested data cannot currently be produced
	// (too many failures for the code to decode around).
	ErrUnavailable = errors.New("store: data unavailable")
	// ErrCorrupted: stored bytes failed an integrity check (checksum
	// mismatch, truncated column, or damaged persistence file).
	ErrCorrupted = errors.New("store: data corrupted")
	// ErrJournalVersion: the directory's write-ahead journal was written
	// in a format this build does not read (the v1 gob-payload journal,
	// magic "APPRJNL1"). The journal may hold acknowledged operations,
	// so no load mode — not even a lenient one — skips or overwrites it.
	ErrJournalVersion = errors.New("store: unsupported journal format version")
	// ErrRepairActive: a repair run is already in progress; wait for it
	// (or abort it) before starting another.
	ErrRepairActive = errors.New("store: repair already active")
	// ErrOverloaded: admission control rejected the operation because
	// the store is at its configured in-flight limit (Config.MaxInFlight)
	// and no slot freed within the admit-wait budget. The request was
	// not started; callers may retry with backoff.
	ErrOverloaded = errors.New("store: overloaded")
	// ErrPlacementUnsafe: the store was opened with an explicit
	// multi-domain topology that violates the survival invariants
	// (place.Report.Err), so new writes would not survive the domain
	// losses the topology claims to protect against. Put refuses until
	// the layout is fixed (or Config.AllowUnsafePlacement opts in for
	// measured baselines). Legacy/implicit flat topologies are exempt:
	// their exposure is reported by Scrub, never enforced.
	ErrPlacementUnsafe = errors.New("store: placement violates survival invariants")
	// ErrNodeUnavailable: I/O against a crashed or health-failed node.
	// Alias of chaos.ErrNodeUnavailable.
	ErrNodeUnavailable = chaos.ErrNodeUnavailable
	// ErrTimeout: a node operation exceeded its deadline. Alias of
	// chaos.ErrTimeout — the same value a netio.Client returns, so the
	// check works identically local or remote.
	ErrTimeout = chaos.ErrTimeout
	// ErrInvalid: the caller passed an invalid argument. Alias of
	// chaos.ErrInvalid.
	ErrInvalid = chaos.ErrInvalid
	// ErrUnrecoverable: a codeword exceeded its fault tolerance; the
	// data is gone from the coding layer's point of view and must be
	// routed to the video recovery module. Alias of
	// core.ErrUnrecoverable.
	ErrUnrecoverable = core.ErrUnrecoverable
)

// errColumnMissing marks a column that was never stored on the node
// (e.g. a write skipped while the node was failed). It is not a node
// fault: reads treat it as a plain erasure without health penalties.
// Alias of chaos.ErrColumnMissing — the NodeIO contract's sentinel —
// so external backends (disk, network) report the condition the same
// way the built-in in-memory nodes do.
var errColumnMissing = chaos.ErrColumnMissing
