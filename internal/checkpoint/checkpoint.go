// Package checkpoint defines the deterministic snapshot container used
// to park and resume simulations: a versioned, self-describing binary
// file of named, length-prefixed, CRC-guarded sections, plus the Codec
// every state-bearing type walks itself with, over little-endian
// Encoder/Decoder primitives.
//
// The format exists to make one guarantee cheap to audit: a snapshot of
// the same simulator state is always the same bytes. Each type's one
// Codec walk visits its fields explicitly, in wire order, and the same
// body encodes and decodes (no reflection, no map iteration — see the
// maporder analyzer, which covers this package). Every section carries
// its own CRC32 so a torn write is detected before any state is
// restored, and a whole-file trailer CRC rejects bit flips anywhere,
// including in the header itself. Snapshot bytes are untrusted input —
// plutusd accepts them over HTTP — so the walker bounds every count and
// index it decodes before anything is allocated from it.
//
// Error taxonomy on load — callers branch with errors.Is:
//
//   - ErrTruncated: the file ends early (torn write, killed writer).
//   - ErrCorrupt: checksum or structural mismatch — bytes changed.
//   - ErrVersion: an intact file written by a different format version.
//   - ErrMismatch: an intact, current-version file whose embedded
//     configuration fingerprint does not match the resuming run.
//   - ErrNotQuiescent: a snapshot was requested while in-flight state
//     (MSHRs, pending security ops, queued events) existed; snapshots
//     are only taken at drained epoch boundaries.
//   - ErrPreempted: a run was deliberately parked at a checkpoint by
//     its checkpoint sink (worker preemption); the snapshot on disk is
//     valid and resumable.
package checkpoint

import "errors"

// Version is the current snapshot format version. Any change to the
// container layout or to any package's section encoding must bump it;
// old snapshots are then rejected with ErrVersion rather than decoded
// into misaligned state.
// Version history:
//
//	1  initial PLUTSNAP format
//	2  SecStats gained tamper-verdict counters (TamperInjected,
//	   TaintedReads, Verdicts); secmem snapshots carry the taint maps;
//	   the gpusim "gpu" section carries the applied-tamper-op index
const Version = 2

var (
	// ErrTruncated reports a snapshot that ends before its trailer —
	// the writer died mid-write or the file was cut short.
	ErrTruncated = errors.New("checkpoint: snapshot truncated")

	// ErrCorrupt reports a snapshot whose bytes fail a CRC or whose
	// structure cannot be parsed: the content changed after writing.
	ErrCorrupt = errors.New("checkpoint: snapshot corrupt")

	// ErrVersion reports an intact snapshot written under a different
	// format version than this binary understands.
	ErrVersion = errors.New("checkpoint: snapshot version mismatch")

	// ErrMismatch reports a valid snapshot that belongs to a different
	// run: its configuration fingerprint (GPU geometry, scheme,
	// workload, budget) does not match the run trying to resume it.
	ErrMismatch = errors.New("checkpoint: snapshot does not match run configuration")

	// ErrNotQuiescent reports an attempt to snapshot state that still
	// has in-flight work; it indicates a bug in the epoch drain.
	ErrNotQuiescent = errors.New("checkpoint: simulator not quiescent")

	// ErrPreempted reports a run parked on purpose: the checkpoint sink
	// asked the run to stop after an atomic snapshot write. The run can
	// be resumed from that snapshot at any time.
	ErrPreempted = errors.New("checkpoint: run preempted at checkpoint")
)
