// Package replica implements log-shipping replication for onesided
// engines: a Source serves a primary's write-ahead log — its newest
// checkpoint snapshot plus live segments — over HTTP, and a Follower consumes that
// stream into a read-only engine, mirroring verified bytes locally so
// restarts resume from disk and promotion turns the mirror into the
// new primary's log.
//
// The correctness contract is the epoch invariant: the database epoch
// counts accepted inserts, relations are insert-only sets, and replay
// is idempotent — so a follower that has applied the log up to byte
// position P has exactly the primary's epoch at P, the same symbol
// Value assignment, and a byte-identical Dump. Every applied record was
// CRC-verified first; a record that does not verify is refetched or the
// follower fails typed. A follower never applies — and therefore never
// serves — bytes it could not verify.
package replica

import (
	"errors"

	"repro/internal/wal"
)

// Typed terminal failures. Transport errors and short reads are
// retried; these are not.
var (
	// ErrCorrupt reports replication input that failed verification
	// beyond the retry budget: the source (or the path to it) is
	// persistently damaged.
	ErrCorrupt = errors.New("replica: corrupt replication stream")
	// ErrDiverged reports that the follower's applied position is ahead
	// of the primary's sealed history — the primary lost a suffix the
	// follower already applied (e.g. an unsynced-WAL crash). The
	// follower cannot rejoin without a fresh bootstrap.
	ErrDiverged = errors.New("replica: follower diverged from primary history")
	// ErrClosed reports an operation on a closed follower.
	ErrClosed = errors.New("replica: follower closed")
)

// Manifest is the primary's replication advertisement: the snapshot a
// follower bootstraps from, the live segments, and the primary's
// current epoch.
type Manifest struct {
	// HeadSnapshot is the newest checkpoint's sequence (0 when the
	// primary has never checkpointed). The snapshot is self-contained:
	// a bootstrap fetches this one file.
	HeadSnapshot uint64 `json:"head_snapshot"`
	// Segments lists the live segments ascending; replay starts at the
	// lowest and follows the active one.
	Segments []wal.SegmentInfo `json:"segments"`
	// ActiveSeq is the segment currently accepting appends.
	ActiveSeq uint64 `json:"active_seq"`
	// Epoch is the primary's database epoch at manifest time.
	Epoch uint64 `json:"epoch"`
}

// Cursor is a replication position: the first unapplied byte of a
// segment (offsets include the wal.SegmentHeaderSize-byte header).
type Cursor struct {
	Seq    uint64 `json:"seq"`
	Offset int64  `json:"offset"`
}

// State is a follower's lifecycle phase.
type State int32

const (
	// StateBootstrapping: fetching and applying the head snapshot.
	StateBootstrapping State = iota
	// StateTailing: applying live segment records as they appear.
	StateTailing
	// StateFailed: the tail loop hit a terminal typed error; reads
	// still serve the last applied state, writes never happened here.
	StateFailed
	// StatePromoted: Promote succeeded; the engine owns the mirror as
	// its write-ahead log and accepts writes.
	StatePromoted
	// StateClosed: Close was called.
	StateClosed
)

// String names the state for stats output.
func (s State) String() string {
	switch s {
	case StateBootstrapping:
		return "bootstrapping"
	case StateTailing:
		return "tailing"
	case StateFailed:
		return "failed"
	case StatePromoted:
		return "promoted"
	case StateClosed:
		return "closed"
	default:
		return "unknown"
	}
}

// Stats is a follower's replication telemetry, served by /v1/stats.
type Stats struct {
	State string `json:"state"`
	// Cursor is the committed position: every byte below it was
	// CRC-verified, applied, and mirrored.
	Cursor Cursor `json:"cursor"`
	// AppliedEpoch is the follower's database epoch — by the epoch
	// invariant, the primary's epoch at the cursor position.
	AppliedEpoch uint64 `json:"applied_epoch"`
	// PrimaryEpoch is the primary's epoch from the newest stream
	// response (0 until the first response).
	PrimaryEpoch uint64 `json:"primary_epoch"`
	// LagEpochs = PrimaryEpoch - AppliedEpoch, clamped at 0.
	LagEpochs uint64 `json:"lag_epochs"`
	// LagBytes is the unapplied byte count of the current segment (the
	// primary's reported size minus the cursor offset, clamped at 0);
	// segments beyond the current one are not included.
	LagBytes int64 `json:"lag_bytes"`
	// RecordsApplied counts applied log records since Start;
	// SnapshotsApplied counts bootstrap/resync snapshots.
	RecordsApplied   int64 `json:"records_applied"`
	SnapshotsApplied int64 `json:"snapshots_applied"`
	// Retries counts transport-level retries; CorruptRetries counts
	// refetches after verification failures.
	Retries        int64 `json:"retries"`
	CorruptRetries int64 `json:"corrupt_retries"`
	// Err is the terminal error when State is "failed".
	Err string `json:"err,omitempty"`
}
