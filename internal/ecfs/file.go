package ecfs

import (
	"context"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// File is a handle on one ECFS file — the only way to read, write and
// update one. It is obtained from Client.Open (or Cluster.OpenFile) and
// implements io.ReaderAt, io.WriterAt and io.Closer, plus UpdateAt
// for the paper's two-stage TSUE updates. The distinction mirrors §4 of
// the paper: WriteAt is the "normal write" path (full stripes, freshly
// encoded), UpdateAt is the "data update" path (partial, routed to the
// data block's OSD and propagated to parity through the update
// strategy's log pipeline).
//
// The io.ReaderAt/io.WriterAt methods cannot accept a context, so they
// use the context the handle was opened with; UpdateAt and ReadRange
// take an explicit one. A File is safe for concurrent use. Close
// invalidates the handle only — ECFS keeps no per-open server state.
type File struct {
	cli    *Client
	ino    uint64
	name   string
	ctx    context.Context
	closed atomic.Bool
}

// Ino returns the file's inode number.
func (f *File) Ino() uint64 { return f.ino }

// Name returns the name the file was opened with.
func (f *File) Name() string { return f.name }

// WithContext returns a handle on the same file whose io.ReaderAt /
// io.WriterAt methods use ctx. The closed state carries over: deriving
// from a closed handle yields a closed handle (Close does not re-open).
func (f *File) WithContext(ctx context.Context) *File {
	nf := &File{cli: f.cli, ino: f.ino, name: f.name, ctx: ctx}
	if f.closed.Load() {
		nf.closed.Store(true)
	}
	return nf
}

func (f *File) guard() error {
	if f.closed.Load() {
		return fmt.Errorf("ecfs: %s: %w", f.name, os.ErrClosed)
	}
	return nil
}

// ReadAt implements io.ReaderAt: it fills p from [off, off+len(p)),
// honoring pending update logs (read-your-writes) and degrading to a
// K-way reconstruction only when the block's holder cannot serve it.
// Reads past the last written stripe fail — ECFS places stripes on
// first write and has no sparse-zero semantics.
//
// The replies are read straight into p, with no intermediate buffer.
// When ReadAt returns an error, p may be partly filled (io.ReaderAt
// lets a failed read use all of p as scratch).
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if err := f.guard(); err != nil {
		return 0, err
	}
	if _, err := f.cli.readInto(f.ctx, f.ino, off, p); err != nil {
		return 0, err
	}
	return len(p), nil
}

// ReadRange is ReadAt with an explicit context, returning the modeled
// synchronous latency alongside the data, which lands in a buffer of its
// own.
func (f *File) ReadRange(ctx context.Context, off int64, size int) ([]byte, time.Duration, error) {
	if err := f.guard(); err != nil {
		return nil, 0, err
	}
	if size < 0 {
		return nil, 0, fmt.Errorf("ecfs: negative range")
	}
	out := make([]byte, size)
	cost, err := f.cli.readInto(ctx, f.ino, off, out)
	if err != nil {
		return nil, 0, err
	}
	return out, cost, nil
}

// WriteAt implements io.WriterAt for the normal-write path: data is
// split into stripes, erasure-coded and distributed. off must be
// stripe-aligned (a multiple of StripeSpan) and the tail stripe is
// zero-padded — for partial in-place mutations of written data use
// UpdateAt, which is the paper's subject. A cancelled handle context
// stops at a stripe boundary; every acknowledged stripe is complete.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	if err := f.guard(); err != nil {
		return 0, err
	}
	span := int64(f.cli.StripeSpan())
	if off%span != 0 {
		return 0, fmt.Errorf("ecfs: WriteAt offset %d is not stripe-aligned (span %d); use UpdateAt for partial updates", off, span)
	}
	if n, err := f.cli.writeStripes(f.ctx, f.ino, uint32(off/span), p); err != nil {
		return int(min(int64(n)*span, int64(len(p)))), err
	}
	return len(p), nil
}

// UpdateAt applies a partial update at a file byte offset through the
// cluster's update strategy — for TSUE, the two-stage log-structured
// path (§3) — splitting it across data blocks as needed; the parts of a
// multi-block update leave as one batch. v is the virtual workload time
// used by the timing model (0 outside replay harnesses). Returns the
// modeled synchronous update latency (max across split parts, which
// proceed concurrently) and, when parts fail, the first failed part's
// error. A cancelled ctx aborts unsent parts at the next priced step;
// like any interrupted POSIX write, a multi-part update may be torn
// (parity stays consistent per part — each part's two-stage update is
// atomic at its OSD).
func (f *File) UpdateAt(ctx context.Context, off int64, data []byte, v time.Duration) (time.Duration, error) {
	if err := f.guard(); err != nil {
		return 0, err
	}
	parts, err := f.cli.split(ctx, f.ino, off, data, true)
	if err != nil {
		return 0, err
	}
	cost, _, err := f.cli.send(ctx, wire.KUpdate, parts, v)
	return cost, err
}

// Stripes returns the number of placed stripes of the file (KMDSStat).
func (f *File) Stripes(ctx context.Context) (int, error) {
	if err := f.guard(); err != nil {
		return 0, err
	}
	resp, err := f.cli.rpc.Call(ctx, wire.MDSNode, &wire.Msg{Kind: wire.KMDSStat, Block: wire.BlockID{Ino: f.ino}})
	if err != nil {
		return 0, err
	}
	defer resp.Release()
	if err := resp.Error(); err != nil {
		return 0, err
	}
	return int(resp.Val), nil
}

// Size returns the written span of the file in bytes (placed stripes
// times stripe span — ECFS tracks stripe-granular sizes).
func (f *File) Size(ctx context.Context) (int64, error) {
	n, err := f.Stripes(ctx)
	return int64(n) * int64(f.cli.StripeSpan()), err
}

// Close implements io.Closer: it invalidates the handle (subsequent
// operations fail with os.ErrClosed). ECFS keeps no per-open server
// state, so Close performs no RPC.
func (f *File) Close() error {
	f.closed.Store(true)
	return nil
}
