package scenario

import (
	"bytes"
	"context"
	"fmt"
	"sync"

	"repro/internal/ecfs"
	"repro/internal/trace"
)

// shadow is a tenant's reference image of its file: what the cluster
// must hold if no acknowledged write was lost. Replay clients apply
// every acknowledged update to it under per-stripe range locks;
// acknowledged reads are checked against it inline; at each checkpoint
// the whole image is compared block-for-block against the cluster
// (Cluster.VerifyStripes).
//
// An op that *fails* mid-fault leaves the cluster range indeterminate
// (the update may have landed on some shards before the error), so the
// overlapped stripes are marked dirty and excluded from read checks
// until the checkpoint heal re-executes the op — writing cluster and
// shadow from the same deterministic payload — after which the stripes
// are clean again and the full-image compare is byte-exact.
type shadow struct {
	ino   uint64
	span  int64 // stripe span (K * blockSize)
	seed  int64 // PerOpPayload seed of the tenant's replayer
	data  []byte
	locks []sync.RWMutex // one per stripe

	mu     sync.Mutex
	dirty  []bool     // per stripe: overlapped by a failed op since last heal
	failed []trace.Op // failed ops awaiting re-execution, in failure order
}

// newShadow builds the reference image as Prepare left it: the fixed
// pattern chunk repeated per stripe (the file is prepared in full
// stripes, so the image covers stripes*span bytes even when fileSize is
// not stripe-aligned).
func newShadow(ino uint64, fileSize, span int64, seed int64) *shadow {
	stripes := (fileSize + span - 1) / span
	if stripes < 1 {
		stripes = 1
	}
	sh := &shadow{
		ino:   ino,
		span:  span,
		seed:  seed,
		data:  make([]byte, stripes*span),
		locks: make([]sync.RWMutex, stripes),
		dirty: make([]bool, stripes),
	}
	chunk := trace.PrepareChunk(int(span))
	for s := int64(0); s < stripes; s++ {
		copy(sh.data[s*span:], chunk)
	}
	return sh
}

// stripeRange returns the closed stripe interval [lo, hi] an op spans.
func (sh *shadow) stripeRange(op trace.Op) (lo, hi int64) {
	lo = op.Off / sh.span
	hi = (op.Off + int64(op.Size) - 1) / sh.span
	if max := int64(len(sh.locks)) - 1; hi > max {
		hi = max
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// lockRange acquires the op's stripe locks in ascending order —
// exclusive for updates, shared for reads — and returns the unlock.
// Ascending acquisition across all clients makes the range locks
// deadlock-free.
func (sh *shadow) lockRange(op trace.Op, exclusive bool) (unlock func()) {
	lo, hi := sh.stripeRange(op)
	for s := lo; s <= hi; s++ {
		if exclusive {
			sh.locks[s].Lock()
		} else {
			sh.locks[s].RLock()
		}
	}
	return func() {
		for s := hi; s >= lo; s-- {
			if exclusive {
				sh.locks[s].Unlock()
			} else {
				sh.locks[s].RUnlock()
			}
		}
	}
}

// bracket wraps one replay op: it takes the range locks, runs the op,
// and settles the shadow — acknowledged updates are applied, failed
// updates recorded for healing, acknowledged reads verified. It is the
// replayer's Around hook body. A read that disagrees with the shadow on
// clean stripes is a lost acknowledged write observed live; the
// mismatch is returned through onMismatch (called with locks held).
//
// checkable gates the inline read check: a degraded read during a
// membership fault window (node killed but its pending log deltas not
// yet replayed onto the replacement) can legitimately serve bytes
// predating an acknowledged update, so the engine suppresses the inline
// check while a kill or drain is in flight. The checkpoint's full-image
// compare runs with the window closed and stays byte-exact.
func (sh *shadow) bracket(op trace.Op, do func() trace.OpResult, checkable func() bool, onMismatch func(error)) trace.OpResult {
	unlock := sh.lockRange(op, op.Kind == trace.OpUpdate)
	defer unlock()
	res := do()
	switch op.Kind {
	case trace.OpUpdate:
		if res.Err == nil {
			trace.Payload(sh.seed, op, sh.data[op.Off:op.Off+int64(op.Size)])
		} else {
			sh.noteFailed(op)
		}
	case trace.OpRead:
		if res.Err == nil && checkable() {
			if err := sh.checkRead(op, res.Data); err != nil {
				onMismatch(err)
			}
		}
	}
	return res
}

// noteFailed marks the op's stripes dirty and queues it for the
// checkpoint heal. Caller holds the exclusive range locks.
func (sh *shadow) noteFailed(op trace.Op) {
	lo, hi := sh.stripeRange(op)
	sh.mu.Lock()
	for s := lo; s <= hi; s++ {
		sh.dirty[s] = true
	}
	sh.failed = append(sh.failed, op)
	sh.mu.Unlock()
}

// checkRead compares an acknowledged read against the shadow. Reads
// touching a dirty stripe are skipped (the range is legitimately
// indeterminate until healed). Caller holds the shared range locks.
func (sh *shadow) checkRead(op trace.Op, got []byte) error {
	lo, hi := sh.stripeRange(op)
	sh.mu.Lock()
	for s := lo; s <= hi; s++ {
		if sh.dirty[s] {
			sh.mu.Unlock()
			return nil
		}
	}
	sh.mu.Unlock()
	want := sh.data[op.Off : op.Off+int64(len(got))]
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && got[i] == want[i] {
			i++
		}
		return fmt.Errorf("scenario: read mismatch ino=%d off=%d size=%d: first divergent byte at +%d (got %#x want %#x)",
			sh.ino, op.Off, op.Size, i, got[i], want[i])
	}
	return nil
}

// heal re-executes every failed update in failure order, writing the
// cluster and the shadow from the same deterministic payload, then
// clears the dirty marks. Run between phases with the workload
// quiesced (no concurrent clients), so no range locks are taken. It
// returns the number of ops healed; any re-execution error is final —
// the fault window is over, so the cluster must accept writes. f is a
// handle on the shadowed file.
func (sh *shadow) heal(ctx context.Context, f *ecfs.File) (int, error) {
	sh.mu.Lock()
	failed := sh.failed
	sh.failed = nil
	sh.mu.Unlock()
	buf := make([]byte, 0)
	for _, op := range failed {
		if op.Size > len(buf) {
			buf = make([]byte, op.Size)
		}
		data := buf[:op.Size]
		trace.Payload(sh.seed, op, data)
		if _, err := f.UpdateAt(ctx, op.Off, data, op.At); err != nil {
			return 0, fmt.Errorf("scenario: heal of failed update off=%d size=%d: %w", op.Off, op.Size, err)
		}
		copy(sh.data[op.Off:], data)
	}
	sh.mu.Lock()
	for s := range sh.dirty {
		sh.dirty[s] = false
	}
	sh.mu.Unlock()
	return len(failed), nil
}
