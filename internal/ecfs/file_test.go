package ecfs

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/transport"
	"repro/internal/wire"
)

// cancelAfterRPC wraps an RPC and cancels a context after a fixed
// number of calls have been issued — the scalpel the cancellation tests
// use to stop a client mid-flight at a deterministic point.
type cancelAfterRPC struct {
	inner  transport.RPC
	calls  atomic.Int64
	after  int64
	cancel context.CancelFunc
}

func (c *cancelAfterRPC) Call(ctx context.Context, to wire.NodeID, msg *wire.Msg) (*wire.Resp, error) {
	if c.calls.Add(1) == c.after {
		c.cancel()
	}
	return c.inner.Call(ctx, to, msg)
}

// CallBatch issues every call of the batch through Call, concurrently,
// so each one counts toward the cancel.
func (c *cancelAfterRPC) CallBatch(ctx context.Context, calls []*transport.BatchCall) {
	var wg sync.WaitGroup
	for _, bc := range calls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bc.Resp, bc.Err = c.Call(ctx, bc.To, bc.Msg)
		}()
	}
	wg.Wait()
}

// TestFileHandleRoundTrip drives the handle surface end to end on the
// in-process cluster: OpenFile, io.WriterAt, UpdateAt, io.ReaderAt,
// Stripes/Size, Close semantics.
func TestFileHandleRoundTrip(t *testing.T) {
	ctx := context.Background()
	c := MustNewCluster(testOptions("tsue"))
	defer c.Close()

	f, err := c.OpenFile(ctx, "handles")
	if err != nil {
		t.Fatal(err)
	}
	span := c.Opts.K * c.Opts.BlockSize
	mirror := make([]byte, 2*span)
	rand.New(rand.NewSource(31)).Read(mirror)
	if n, err := f.WriteAt(mirror, 0); err != nil || n != len(mirror) {
		t.Fatalf("WriteAt = %d, %v", n, err)
	}
	// Stripe-aligned WriteAt at a non-zero offset works too.
	if _, err := f.WriteAt(mirror[:span], int64(span)); err != nil {
		t.Fatal(err)
	}
	copy(mirror[span:], mirror[:span])
	// Unaligned WriteAt is rejected with a pointer at UpdateAt.
	if _, err := f.WriteAt([]byte("x"), 7); err == nil {
		t.Fatal("unaligned WriteAt must fail")
	}

	payload := []byte("handle update")
	if _, err := f.UpdateAt(ctx, 99, payload, 0); err != nil {
		t.Fatal(err)
	}
	copy(mirror[99:], payload)

	got := make([]byte, len(mirror))
	if n, err := f.ReadAt(got, 0); err != nil || n != len(got) {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	if !bytes.Equal(got, mirror) {
		t.Fatal("handle read-back mismatch")
	}
	if n, err := f.Stripes(ctx); err != nil || n != 2 {
		t.Fatalf("Stripes = %d, %v", n, err)
	}
	if sz, err := f.Size(ctx); err != nil || sz != int64(2*span) {
		t.Fatalf("Size = %d, %v", sz, err)
	}

	// A second handle on the same name sees the same file.
	f2, err := c.OpenFile(ctx, "handles")
	if err != nil {
		t.Fatal(err)
	}
	if f2.Ino() != f.Ino() {
		t.Fatalf("second OpenFile ino %d != first %d", f2.Ino(), f.Ino())
	}

	// Close invalidates this handle only.
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAt(got, 0); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("read after close = %v, want os.ErrClosed", err)
	}
	if _, err := f.WriteAt(mirror, 0); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("write after close = %v, want os.ErrClosed", err)
	}
	// WithContext carries the closed state — it must not resurrect a
	// closed handle.
	if _, err := f.WithContext(ctx).ReadAt(got, 0); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("read via WithContext after close = %v, want os.ErrClosed", err)
	}
	if _, err := f2.ReadAt(got, 0); err != nil {
		t.Fatalf("sibling handle must survive: %v", err)
	}
}

// TestCancelMidWriteFileInproc pins cancellation safety on the
// in-process transport: a handle context cancelled mid-WriteAt stops the
// write at a coalescing-window boundary — every placed stripe has all
// its shards stored (Scrub verifies it), no partial stripe is bound at
// the MDS, and the short count WriteAt returns is exactly the bound
// stripes' bytes. The file spans two windows so the cancel (fired
// inside the first window's detached fan-out) is observed before the
// second window binds anything.
func TestCancelMidWriteFileInproc(t *testing.T) {
	c := MustNewCluster(testOptions("tsue"))
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel deep inside the first window's fan-out: after the create,
	// a few of the window's lookups and shard writes.
	rpc := &cancelAfterRPC{
		inner:  c.Tr.Caller(wire.ClientIDBase + 500),
		after:  int64(2 + c.Opts.K + c.Opts.M + 2),
		cancel: cancel,
	}
	cli := NewClient(wire.ClientIDBase+500, rpc, c.code, c.Opts.BlockSize)

	f, err := cli.Open(ctx, "cancelled-write")
	if err != nil {
		t.Fatal(err)
	}
	span := cli.StripeSpan()
	stripes := 2 * writeCoalesceStripes
	data := make([]byte, stripes*span)
	rand.New(rand.NewSource(41)).Read(data)
	written, err := f.WriteAt(data, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("WriteAt = %d, %v; want context.Canceled", written, err)
	}
	n := c.MDS.Stripes(f.Ino())
	if n == 0 || n >= stripes {
		t.Fatalf("cancel landed outside the file: %d stripes bound", n)
	}
	if written != n*span {
		t.Fatalf("WriteAt returned %d bytes, want %d bound stripes x %d = %d", written, n, span, n*span)
	}

	// The invariant: every stripe the MDS has bound is fully stored.
	// (A torn stripe would fail Scrub with a missing block; a stripe
	// placed by a cancelled write attempt would too.)
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	checked, err := c.Scrub()
	if err != nil {
		t.Fatalf("scrub after cancelled write: %v", err)
	}
	if checked < n {
		t.Fatalf("scrub checked %d stripes, want >= %d", checked, n)
	}
	// The completed prefix reads back intact with a fresh, uncancelled
	// client.
	f2, err := c.NewClient().Open(context.Background(), "cancelled-write")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, n*span)
	if _, err := f2.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[:n*span]) {
		t.Fatal("completed stripes corrupted by cancellation")
	}
}

// TestCancelMidWriteFileTCP is the same invariant over real sockets:
// the cancelled WriteAt stops at a coalescing-window boundary, reports
// exactly the bound stripes' bytes, and every bound stripe is complete
// on its (remote) OSDs.
func TestCancelMidWriteFileTCP(t *testing.T) {
	const (
		k, m      = 2, 1
		blockSize = 8 << 10
	)
	h := newTCPHarness(t, k, m, 4, blockSize)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rpc := &cancelAfterRPC{
		inner:  h.newRPC(),
		after:  int64(2 + k + m + 2),
		cancel: cancel,
	}
	cli := NewClient(wire.ClientIDBase+600, rpc, h.code, blockSize)

	f, err := cli.Open(ctx, "tcp-cancelled-write")
	if err != nil {
		t.Fatal(err)
	}
	ino := f.Ino()
	span := cli.StripeSpan()
	stripes := 2 * writeCoalesceStripes
	data := make([]byte, stripes*span)
	rand.New(rand.NewSource(43)).Read(data)
	written, err := f.WriteAt(data, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("WriteAt over TCP = %d, %v; want context.Canceled", written, err)
	}
	n := h.mds.Stripes(ino)
	if n == 0 || n >= stripes {
		t.Fatalf("cancel landed outside the file: %d stripes bound", n)
	}
	if written != n*span {
		t.Fatalf("WriteAt returned %d bytes, want %d bound stripes x %d = %d", written, n, span, n*span)
	}
	// Every bound stripe is fully stored on its OSDs and parity-
	// consistent — the remote equivalent of Scrub for this file.
	for s := 0; s < n; s++ {
		loc, err := h.mds.Lookup(ino, uint32(s))
		if err != nil {
			t.Fatal(err)
		}
		shards := make([][]byte, k)
		parity := make([][]byte, m)
		for i := 0; i < k+m; i++ {
			b := wire.BlockID{Ino: ino, Stripe: uint32(s), Idx: uint8(i)}
			snap, ok := h.osds[loc.Nodes[i]].Store().Snapshot(b)
			if !ok {
				t.Fatalf("bound stripe %d is torn: block %v missing", s, b)
			}
			if i < k {
				shards[i] = snap
			} else {
				parity[i-k] = snap
			}
		}
		ok, err := h.code.Verify(shards, parity)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("bound stripe %d parity-inconsistent after cancel", s)
		}
	}
}

// TestReadPastEndChangesNothing: a read of a stripe that was never
// written fails with ErrNotFound and leaves the namespace as it was — no
// stripe placed at the MDS, no bind record in the durable op log, no
// degraded reconstruction attempted.
func TestReadPastEndChangesNothing(t *testing.T) {
	ctx := context.Background()
	opts := testOptions("tsue")
	opts.MDSDataDir = t.TempDir()
	c := MustNewCluster(opts)
	defer c.Close()
	cli := c.NewClient()
	f, err := cli.Open(ctx, "past-end")
	if err != nil {
		t.Fatal(err)
	}
	span := cli.StripeSpan()
	if _, err := f.WriteAt(make([]byte, span), 0); err != nil {
		t.Fatal(err)
	}
	size, err := f.Size(ctx)
	if err != nil {
		t.Fatal(err)
	}
	records, _, _ := c.MDS.Log().Stats()

	buf := make([]byte, 16)
	if _, err := f.ReadAt(buf, int64(span)); !errors.Is(err, wire.ErrNotFound) {
		t.Fatalf("ReadAt one stripe past the end = %v, want ErrNotFound", err)
	}
	if _, _, err := f.ReadRange(ctx, int64(2*span), 16); !errors.Is(err, wire.ErrNotFound) {
		t.Fatalf("ReadRange two stripes past the end = %v, want ErrNotFound", err)
	}
	if got, err := f.Size(ctx); err != nil || got != size {
		t.Fatalf("Size after failed reads = %d, %v; want %d", got, err, size)
	}
	if got := c.MDS.Stripes(f.Ino()); got != 1 {
		t.Fatalf("MDS.Stripes after failed reads = %d, want 1", got)
	}
	if got := cli.Stats().DegradedReads; got != 0 {
		t.Fatalf("failed reads went degraded %d times", got)
	}
	if got, _, _ := c.MDS.Log().Stats(); got != records {
		t.Fatalf("op log grew from %d to %d records on failed reads", records, got)
	}
}

// TestPerShardInoRanges pins the satellite: concurrent creates allocate
// unique inos from disjoint per-shard ranges with no shared counter.
func TestPerShardInoRanges(t *testing.T) {
	ids := []wire.NodeID{1, 2, 3}
	md, err := NewMDSWithShards(ids, 2, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	const files = 4000
	inos := make([]uint64, files)
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := w; i < files; i += 8 {
				inos[i], _ = md.Create(nameForInoTest(i))
			}
		}(w)
	}
	for w := 0; w < 8; w++ {
		<-done
	}
	seen := make(map[uint64]bool, files)
	for i, ino := range inos {
		if ino == 0 {
			t.Fatalf("file %d got ino 0", i)
		}
		if seen[ino] {
			t.Fatalf("duplicate ino %d", ino)
		}
		seen[ino] = true
	}
	// Open-or-create still returns the existing ino.
	if again, _ := md.Create(nameForInoTest(17)); again != inos[17] {
		t.Fatalf("re-create returned %d, want %d", again, inos[17])
	}
	// Determinism: two MDS instances fed the same create sequence
	// allocate identically (name-shard hashing is seedless), so
	// placements stay reproducible run to run.
	md2, err := NewMDSWithShards(ids, 2, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	md3, err := NewMDSWithShards(ids, 2, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		a, _ := md2.Create(nameForInoTest(i))
		b, _ := md3.Create(nameForInoTest(i))
		if a != b {
			t.Fatalf("ino allocation not deterministic: file %d got %d and %d", i, a, b)
		}
	}
}

func nameForInoTest(i int) string {
	return "ino-range/f" + string(rune('a'+i%26)) + "/" + itoa(i)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}
