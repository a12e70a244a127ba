// Package mdslog is the MDS's durability layer: a mutation op log of
// fixed-layout binary records (in the internal/wire codec style) plus a
// checkpointed namespace snapshot. The op log is an internal/framelog
// log and the snapshot a framelog checksummed file, exactly like the
// internal/store WAL and checkpoint; this package owns the three-kind
// record catalog, its codecs and the snapshot layout. Each record is
// the state of one key — a name, a stripe's placement, a node — after
// a mutation. The contract is log-before-ack: the MDS appends the
// record for a namespace mutation with plain write(2) before applying
// it in memory and acknowledging the caller, so a process-level crash
// (kill -9) loses at most a torn tail no caller was ever told about.
// Recovery loads the snapshot, scans the log tail, discards everything
// at and after the first bad or undecodable record, and installs the
// committed records through the same per-kind apply functions the
// MDS's live mutators call: the last record per key wins.
//
// Crash model and invariants:
//
//   - A record is committed once write(2) returned; the framing CRC
//     detects the torn tail a crash can leave, never interleaving.
//   - Compact writes the snapshot atomically (tmp + fsync + rename +
//     dir fsync) and only then truncates the log. A crash between the
//     two leaves the new snapshot plus a stale log prefix, which replay
//     tolerates: each record is a key's whole state and a placement's
//     epoch orders its records, so redoing records the snapshot already
//     folded in converges to the same state.
//   - Any append failure freezes the log (fail-stop): the failing
//     mutation was neither applied nor acknowledged, and every later
//     mutation fails too, so memory never runs ahead of disk.
package mdslog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/framelog"
)

// ErrCrashed is returned by every mutator after the log froze — either
// Crash simulating kill -9, or a failed append tripping fail-stop.
var ErrCrashed = errors.New("mdslog: log crashed")

// Options configures a Log.
type Options struct {
	// SnapshotBytes is the log size beyond which NeedsCompact asks for
	// a checkpoint; <= 0 selects 4 MiB.
	SnapshotBytes int64
}

const defaultSnapshotBytes = 4 << 20

// Log is the append-only MDS op log plus its snapshot file, both under
// one directory. Append is safe for concurrent use; Compact excludes
// appends through the caller's gate (the MDS stops the world), not
// through the Log's own mutex.
type Log struct {
	dir  string
	opts Options

	mu      sync.Mutex
	log     *framelog.Log
	crashed bool
	// failAfter is the kill-point test hook: >= 0 means that many more
	// appends succeed, then appends fail and the log freezes.
	failAfter int64
	// skipTruncates makes Compact skip the log truncation after the
	// snapshot rename — the test hook that fabricates the
	// crash-between-rename-and-truncate window recovery must converge
	// through.
	skipTruncates int
}

// Open opens (or creates) the log directory, loads the snapshot if one
// exists (nil for a fresh directory), scans the op log, truncates the
// first torn or corrupt record and everything after it, and returns the
// committed records for the caller to redo. The caller applies them and
// then normally Compacts, folding the tail into a fresh snapshot.
func Open(dir string, opts Options) (*Log, *State, []Record, error) {
	if opts.SnapshotBytes <= 0 {
		opts.SnapshotBytes = defaultSnapshotBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, nil, err
	}
	st, err := readSnapshot(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	// A CRC-valid record that fails strict decoding also ends the
	// committed prefix: decodeRecord accepts exactly what appendRecord
	// writes.
	var recs []Record
	log, err := framelog.Open(filepath.Join(dir, "oplog.bin"), func(kind byte, payload []byte) bool {
		r, err := decodeRecord(kind, payload)
		if err != nil {
			return false
		}
		recs = append(recs, r)
		return true
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return &Log{dir: dir, opts: opts, log: log, failAfter: -1}, st, recs, nil
}

// Append frames and writes one record with a single write(2) — a crash
// can tear the record (detected by CRC at replay) but never interleave
// two — returning only once the bytes are handed to the kernel. Any
// failure freezes the log.
func (l *Log) Append(r Record) error {
	var head [recordCap]byte
	payload, err := appendRecord(head[:0], r)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.crashed {
		return ErrCrashed
	}
	if l.failAfter >= 0 {
		if l.failAfter == 0 {
			l.crashed = true
			return fmt.Errorf("mdslog: append failed at kill point: %w", ErrCrashed)
		}
		l.failAfter--
	}
	if err := l.log.Append(byte(r.Kind), payload, nil); err != nil {
		l.crashed = true
		return fmt.Errorf("mdslog: append: %w", err)
	}
	return nil
}

// NeedsCompact reports whether the log has outgrown the snapshot
// threshold. The MDS checks it after releasing its mutation gate.
func (l *Log) NeedsCompact() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return !l.crashed && l.log.Size() > l.opts.SnapshotBytes
}

// Compact checkpoints: the state is written as a snapshot (a framelog
// checksummed file, replaced atomically) and the log truncated. The
// caller must exclude concurrent appends (the MDS holds its mutation
// gate exclusively). A crash after the rename but before the truncate
// leaves the new snapshot plus a stale log prefix; replay converges
// through it.
func (l *Log) Compact(st *State) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.crashed {
		return ErrCrashed
	}
	if err := writeSnapshot(l.dir, st); err != nil {
		return err
	}
	if l.skipTruncates > 0 {
		l.skipTruncates--
		return nil
	}
	return l.log.Reset()
}

// Sync flushes the log file to the media (group commit's commit point).
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.crashed {
		return ErrCrashed
	}
	return l.log.Sync()
}

// Crash freezes the log, simulating kill -9: every subsequent append
// and compact fails with ErrCrashed, and Close skips the shutdown
// checkpoint, so on-disk state stays exactly what the kernel saw.
func (l *Log) Crash() {
	l.mu.Lock()
	l.crashed = true
	l.mu.Unlock()
}

// Crashed reports whether the log froze (Crash, or a failed append).
func (l *Log) Crashed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.crashed
}

// Close releases the file handle. It does not checkpoint — the MDS's
// Close does that first for a clean shutdown.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.log.Close()
}

// FailAppends arms the kill-point hook: after n more successful
// appends, the next append fails and the log freezes — the crash-at-
// every-sync-boundary battery's lever. Negative n disarms it.
func (l *Log) FailAppends(n int64) {
	l.mu.Lock()
	l.failAfter = n
	l.mu.Unlock()
}

// SkipNextTruncate makes the next Compact stop after the snapshot
// rename, leaving the log untruncated — fabricating the crash window
// between the two halves of a checkpoint for recovery tests.
func (l *Log) SkipNextTruncate() {
	l.mu.Lock()
	l.skipTruncates++
	l.mu.Unlock()
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// Stats reports lifetime append counters: records and framed bytes
// appended, and fsyncs issued.
func (l *Log) Stats() (records, bytes, syncs int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.log.Stats()
}

// Size returns the current log length in bytes.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.log.Size()
}
