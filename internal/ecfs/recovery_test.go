package ecfs

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// buildRecoveryCluster assembles a cluster with a written + updated file.
// Everything is driven from one client with a fixed seed, so two calls
// produce byte-identical cluster states.
func buildRecoveryCluster(t *testing.T, method string, updates int) (*Cluster, *Client, *File, []byte) {
	t.Helper()
	ctx := context.Background()
	c := MustNewCluster(testOptions(method))
	cli := c.NewClient()
	fileSize := 64 << 10
	f, mirror := writeTestFile(t, c, cli, fileSize, 23)
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < updates; i++ {
		off := int64(rng.Intn(fileSize - 256))
		data := make([]byte, 1+rng.Intn(256))
		rng.Read(data)
		if _, err := f.UpdateAt(ctx, off, data, time.Duration(i)*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		copy(mirror[off:], data)
	}
	return c, cli, f, mirror
}

// failAndRecover fails the OSD at position pos, rebuilds it with the
// given worker count, and returns the replacement and result. The
// replacement is NOT reinstated.
func failAndRecover(t *testing.T, c *Cluster, pos int, workers int) (*OSD, *RecoveryResult) {
	t.Helper()
	victim := c.OSDs[pos]
	c.FailOSD(victim.ID())
	repl := newTestReplacement(t, c, victim.ID())
	c.Opts.RecoveryWorkers = workers
	res, err := c.Recover(context.Background(), victim.ID(), repl)
	if err != nil {
		t.Fatal(err)
	}
	return repl, res
}

func newTestReplacement(t *testing.T, c *Cluster, id wire.NodeID) *OSD {
	t.Helper()
	cfg := *c.Opts.Strategy
	cfg.BlockSize = c.Opts.BlockSize
	repl, err := NewOSD(id, c.Opts.Device, c.Tr.Caller(id), c.Opts.Method, cfg, c.Opts.Kind)
	if err != nil {
		t.Fatal(err)
	}
	return repl
}

// TestRecoveryDeterministicAcrossWorkers pins the tentpole's core
// guarantee: the parallel rebuild produces block contents byte-identical
// to the sequential (one-worker) path, for every worker count.
func TestRecoveryDeterministicAcrossWorkers(t *testing.T) {
	type outcome struct {
		repl *OSD
		res  *RecoveryResult
	}
	outs := map[int]outcome{}
	for _, workers := range []int{1, 8} {
		c, _, _, _ := buildRecoveryCluster(t, "tsue", 200)
		defer c.Close()
		repl, res := failAndRecover(t, c, 2, workers)
		defer repl.Close()
		outs[workers] = outcome{repl: repl, res: res}
	}
	seq, par := outs[1], outs[8]
	if seq.res.Blocks == 0 {
		t.Fatal("nothing recovered")
	}
	if seq.res.Blocks != par.res.Blocks || seq.res.Bytes != par.res.Bytes ||
		seq.res.ReplayedBytes != par.res.ReplayedBytes || seq.res.Skipped != par.res.Skipped {
		t.Fatalf("result mismatch: seq=%+v par=%+v", seq.res, par.res)
	}
	blocks := seq.repl.Store().Blocks()
	if len(blocks) != seq.res.Blocks {
		t.Fatalf("store holds %d blocks, result says %d", len(blocks), seq.res.Blocks)
	}
	for _, id := range blocks {
		want, _ := seq.repl.Store().Snapshot(id)
		got, ok := par.repl.Store().Snapshot(id)
		if !ok {
			t.Fatalf("block %v missing from parallel rebuild", id)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %v differs between worker counts", id)
		}
	}
	// Per-stripe timings are reported in deterministic order and sum to
	// the serial cost.
	var sum time.Duration
	for i, sr := range par.res.Stripes {
		sum += sr.Time()
		if i > 0 {
			prev := par.res.Stripes[i-1]
			if prev.Ino > sr.Ino || (prev.Ino == sr.Ino && prev.Stripe > sr.Stripe) {
				t.Fatal("per-stripe timings not in (ino, stripe) order")
			}
		}
	}
	if sum != par.res.StripeTime {
		t.Fatalf("StripeTime %v != summed per-stripe time %v", par.res.StripeTime, sum)
	}
	// The pipelined makespan model must credit the extra workers.
	if par.res.VirtualTime > seq.res.VirtualTime {
		t.Fatalf("8 workers slower than 1: %v > %v", par.res.VirtualTime, seq.res.VirtualTime)
	}
}

// TestRecoveryFetchErrorFallback injects fetch failures at one surviving
// shard holder: every fetch it serves answers with an error. Recovery
// must fall back to the remaining live holders (here including parity
// shards) instead of aborting or silently skipping stripes.
func TestRecoveryFetchErrorFallback(t *testing.T) {
	ctx := context.Background()
	c, _, f, mirror := buildRecoveryCluster(t, "tsue", 150)
	defer c.Close()
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}

	victim := c.OSDs[2]
	c.FailOSD(victim.ID())

	// A second, live node serves everything except block fetches.
	flaky := c.OSDs[5]
	var injected atomic.Int64
	c.Tr.Register(flaky.ID(), func(hctx context.Context, msg *wire.Msg) *wire.Resp {
		if msg.Kind == wire.KBlockFetch {
			injected.Add(1)
			return &wire.Resp{Err: "injected fetch failure"}
		}
		return flaky.Handler(hctx, msg)
	})

	repl := newTestReplacement(t, c, victim.ID())
	defer repl.Close()
	res, err := c.Recover(context.Background(), victim.ID(), repl)
	if err != nil {
		t.Fatalf("recovery must survive per-node fetch errors: %v", err)
	}
	if injected.Load() == 0 {
		t.Fatal("fault injection never triggered")
	}
	// Error replies are accounted as per-stripe fallback retries; they
	// are not transport-level FetchErrors (the node did answer).
	retries := 0
	for _, sr := range res.Stripes {
		retries += sr.Retries
	}
	if retries == 0 {
		t.Fatal("fetch fallbacks not accounted")
	}
	if res.FetchErrors != 0 {
		t.Fatalf("error replies miscounted as unreachable nodes: %d", res.FetchErrors)
	}
	if res.Skipped != 0 {
		t.Fatalf("%d stripes skipped despite >= K live holders", res.Skipped)
	}
	for _, id := range victim.Store().Blocks() {
		if _, ok := repl.Store().Snapshot(id); !ok {
			t.Fatalf("block %v not recovered", id)
		}
	}
	// Restore the flaky node's real handler and verify end to end.
	c.Tr.Register(flaky.ID(), flaky.Handler)
	c.Reinstate(repl)
	got, _, err := f.ReadRange(ctx, 0, len(mirror))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, mirror) {
		t.Fatal("post-recovery read mismatch")
	}
	if err := c.VerifyStripes(f, mirror); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryNodeDiesMidRebuild kills a second node *during* the
// rebuild: its first served fetch deregisters it, so every later fetch
// to it fails at the transport (the exact cluster.go:212 abort of the
// seed). Recovery must fall back to other holders and finish.
func TestRecoveryNodeDiesMidRebuild(t *testing.T) {
	c, _, _, _ := buildRecoveryCluster(t, "tsue", 100)
	defer c.Close()
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}

	victim := c.OSDs[1]
	c.FailOSD(victim.ID())

	dying := c.OSDs[4]
	var killed atomic.Bool
	c.Tr.Register(dying.ID(), func(hctx context.Context, msg *wire.Msg) *wire.Resp {
		if msg.Kind == wire.KBlockFetch {
			if killed.CompareAndSwap(false, true) {
				c.FailOSD(dying.ID())
			}
			return &wire.Resp{Err: "node dying"}
		}
		return dying.Handler(hctx, msg)
	})

	repl := newTestReplacement(t, c, victim.ID())
	defer repl.Close()
	res, err := c.Recover(context.Background(), victim.ID(), repl)
	if err != nil {
		t.Fatalf("recovery must survive a node dying mid-rebuild: %v", err)
	}
	if !killed.Load() {
		t.Fatal("second failure never triggered")
	}
	if res.Skipped != 0 {
		t.Fatalf("%d stripes skipped despite K live holders", res.Skipped)
	}
	// Whether a given failed attempt was an error reply (before the
	// deregistration) or a transport error (after) depends on stripe
	// placement; together they must be visible as fallbacks.
	retries := 0
	for _, sr := range res.Stripes {
		retries += sr.Retries
	}
	if retries == 0 {
		t.Fatal("fetch fallbacks not accounted")
	}
	for _, id := range victim.Store().Blocks() {
		if _, ok := repl.Store().Snapshot(id); !ok {
			t.Fatalf("block %v not recovered", id)
		}
	}
}

// TestRecoveryDoubleFailure exercises M=2 fault tolerance: two OSDs die
// with pending updates, and both are rebuilt one after the other while
// the other is still down.
func TestRecoveryDoubleFailure(t *testing.T) {
	ctx := context.Background()
	c, _, f, mirror := buildRecoveryCluster(t, "tsue", 200)
	defer c.Close()

	first, second := c.OSDs[1], c.OSDs[4]
	c.FailOSD(first.ID())
	c.FailOSD(second.ID())

	for _, victim := range []*OSD{first, second} {
		repl := newTestReplacement(t, c, victim.ID())
		res, err := c.Recover(context.Background(), victim.ID(), repl)
		if err != nil {
			t.Fatalf("recover %d: %v", victim.ID(), err)
		}
		if res.Blocks == 0 {
			t.Fatalf("recover %d: nothing recovered", victim.ID())
		}
		for _, id := range victim.Store().Blocks() {
			if _, ok := repl.Store().Snapshot(id); !ok {
				t.Fatalf("recover %d: block %v not recovered", victim.ID(), id)
			}
		}
		c.Reinstate(repl)
	}
	got, _, err := f.ReadRange(ctx, 0, len(mirror))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, mirror) {
		t.Fatal("post-recovery read mismatch")
	}
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyStripes(f, mirror); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryNeverWrittenStripes: stripes that were placed but never
// written (no block exists anywhere) are skipped, not treated as errors.
func TestRecoveryNeverWrittenStripes(t *testing.T) {
	ctx := context.Background()
	c, _, f, mirror := buildRecoveryCluster(t, "tsue", 50)
	defer c.Close()
	// Place (but never write) several additional stripes; with 8 OSDs
	// and 6 nodes per stripe, every OSD appears in some placement.
	written := c.MDS.Stripes(f.Ino())
	for s := written; s < written+8; s++ {
		if _, err := c.MDS.Lookup(f.Ino(), uint32(s)); err != nil {
			t.Fatal(err)
		}
	}

	victim := c.OSDs[3]
	c.FailOSD(victim.ID())
	repl := newTestReplacement(t, c, victim.ID())
	defer repl.Close()
	res, err := c.Recover(context.Background(), victim.ID(), repl)
	if err != nil {
		t.Fatalf("never-written stripes must not fail recovery: %v", err)
	}
	if res.Skipped == 0 {
		t.Fatal("expected at least one never-written stripe on the victim")
	}
	for _, sr := range res.Stripes {
		if sr.Skipped && sr.Bytes != 0 {
			t.Fatalf("skipped stripe %d/%d reports %d rebuilt bytes", sr.Ino, sr.Stripe, sr.Bytes)
		}
	}
	c.Reinstate(repl)
	got, _, err := f.ReadRange(ctx, 0, len(mirror))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, mirror) {
		t.Fatal("post-recovery read mismatch")
	}
}

// TestRecoveryConcurrentWithReads drives client reads (which degrade to
// reconstruction for blocks of the dead node) while the rebuild engine
// runs with multiple workers.
func TestRecoveryConcurrentWithReads(t *testing.T) {
	ctx := context.Background()
	c, _, f, mirror := buildRecoveryCluster(t, "tsue", 150)
	defer c.Close()
	c.Opts.RecoveryWorkers = 8
	// Drain first so degraded reads see fully recycled state.
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}

	victim := c.OSDs[2]
	c.FailOSD(victim.ID())
	repl := newTestReplacement(t, c, victim.ID())

	done := make(chan error, 1)
	go func() {
		rng := rand.New(rand.NewSource(31))
		for i := 0; i < 40; i++ {
			off := int64(rng.Intn(len(mirror) - 512))
			n := 1 + rng.Intn(512)
			got, _, err := f.ReadRange(ctx, off, n)
			if err != nil {
				done <- err
				return
			}
			if !bytes.Equal(got, mirror[off:off+int64(n)]) {
				done <- errReadMismatch{off: off, n: n}
				return
			}
		}
		done <- nil
	}()

	if _, err := c.Recover(context.Background(), victim.ID(), repl); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("concurrent read: %v", err)
	}
	c.Reinstate(repl)
	if err := c.VerifyStripes(f, mirror); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryErrorReturnsPromptly pins the worker-pool error path: a
// stripe rebuild that errors (here: a replica log that fails to decode)
// must surface the error from Recover instead of deadlocking the
// feeder against exited workers.
func TestRecoveryErrorReturnsPromptly(t *testing.T) {
	for _, workers := range []int{1, 4} {
		c, _, _, _ := buildRecoveryCluster(t, "tsue", 100)
		defer c.Close()
		c.Opts.RecoveryWorkers = workers
		victim := c.OSDs[2]
		c.FailOSD(victim.ID())
		// Every replica-log fetch answers garbage that DecodeExtents
		// rejects, so every data-block stripe rebuild errors.
		for _, o := range c.Alive() {
			o := o
			c.Tr.Register(o.ID(), func(hctx context.Context, msg *wire.Msg) *wire.Resp {
				if msg.Kind == wire.KReplicaFetch {
					return &wire.Resp{Data: []byte{0xFF, 0x01, 0x02}}
				}
				return o.Handler(hctx, msg)
			})
		}
		repl := newTestReplacement(t, c, victim.ID())
		defer repl.Close()

		errCh := make(chan error, 1)
		go func() {
			_, err := c.Recover(context.Background(), victim.ID(), repl)
			errCh <- err
		}()
		select {
		case err := <-errCh:
			if err == nil {
				t.Fatalf("workers=%d: expected a decode error from recovery", workers)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("workers=%d: recovery deadlocked on stripe error", workers)
		}
	}
}

// TestRecoveryOntoFreshNode pins the epoch tentpole end to end: the
// victim's blocks are rebuilt onto a replacement with a *different*
// node id, every affected placement is rebound under a bumped epoch,
// and a client that cached the pre-failure placements transparently
// re-resolves — reads, updates and writes all succeed with no manual
// cache invalidation.
func TestRecoveryOntoFreshNode(t *testing.T) {
	ctx := context.Background()
	c, cli, f, mirror := buildRecoveryCluster(t, "tsue", 200)
	defer c.Close()

	// Warm the client's placement cache across the whole file.
	if _, _, err := f.ReadRange(ctx, 0, len(mirror)); err != nil {
		t.Fatal(err)
	}

	victim := c.OSDs[2]
	c.FailOSD(victim.ID())

	freshID := wire.NodeID(c.Opts.NumOSDs + 5)
	cfg := *c.Opts.Strategy
	cfg.BlockSize = c.Opts.BlockSize
	repl, err := NewOSD(freshID, c.Opts.Device, c.Tr.Caller(freshID), c.Opts.Method, cfg, c.Opts.Kind)
	if err != nil {
		t.Fatal(err)
	}
	c.AddOSD(repl)

	res, err := c.Recover(context.Background(), victim.ID(), repl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocks == 0 {
		t.Fatal("nothing recovered")
	}
	if res.Rebound != res.Blocks+res.Skipped {
		t.Fatalf("rebound %d placements, want %d", res.Rebound, res.Blocks+res.Skipped)
	}
	// Presence check per block; contents are verified against the
	// mirror below (the rebuilt blocks may legitimately differ from the
	// victim's last store state, since replica-log replay applies the
	// updates that were still buffered in the victim's DataLog).
	for _, id := range victim.Store().Blocks() {
		if _, ok := repl.Store().Snapshot(id); !ok {
			t.Fatalf("block %v not rebuilt on the fresh node", id)
		}
	}

	// The MDS must no longer reference the victim anywhere.
	if refs := c.MDS.StripesOn(victim.ID()); len(refs) != 0 {
		t.Fatalf("victim still holds %d placements after fresh-node recovery", len(refs))
	}
	loc, err := c.MDS.Lookup(f.Ino(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if loc.Epoch == 0 {
		t.Fatal("placement epoch not bumped by fresh-node recovery")
	}

	// The stale client: reads re-resolve the moved block (its cached
	// node is gone), updates to surviving holders are rejected with
	// the structured stale-epoch reply and retried transparently.
	got, _, err := f.ReadRange(ctx, 0, len(mirror))
	if err != nil {
		t.Fatalf("stale client read: %v", err)
	}
	if !bytes.Equal(got, mirror) {
		t.Fatal("stale client read mismatch")
	}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 50; i++ {
		off := int64(rng.Intn(len(mirror) - 128))
		data := make([]byte, 1+rng.Intn(128))
		rng.Read(data)
		if _, err := f.UpdateAt(ctx, off, data, 0); err != nil {
			t.Fatalf("stale client update: %v", err)
		}
		copy(mirror[off:], data)
	}
	// A full-stripe write through the stale cache must also land on the
	// rebound placement. (Drain first: rewriting a stripe that has
	// pending update logs is out of contract.)
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	span := cli.StripeSpan()
	rng.Read(mirror[:span])
	if _, err := f.WriteAt(mirror[:span], 0); err != nil {
		t.Fatalf("stale client write: %v", err)
	}
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyStripes(f, mirror); err != nil {
		t.Fatal(err)
	}

	// A second, fresh client resolves the rebound placements directly.
	f2 := openFile(t, c.NewClient(), f.Name())
	got, _, err = f2.ReadRange(ctx, 0, len(mirror))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, mirror) {
		t.Fatal("fresh client read mismatch")
	}
}

// TestRecoveryDataLossError pins the skip/loss distinction: when more
// than M holders of a written stripe cannot be reached (transport-level
// or non-not-found failures), Recover reports an explicit
// *DataLossError instead of silently skipping the stripe, while still
// rebuilding everything that *is* recoverable.
func TestRecoveryDataLossError(t *testing.T) {
	c, _, f, _ := buildRecoveryCluster(t, "tsue", 100)
	defer c.Close()
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Pick the victims from one stripe's placement so at least that
	// stripe is short of K: the victim plus M more members that answer
	// fetches with a generic (non-not-found) failure.
	loc, err := c.MDS.Lookup(f.Ino(), 0)
	if err != nil {
		t.Fatal(err)
	}
	victim := c.OSD(loc.Nodes[0])
	c.FailOSD(victim.ID())
	for _, node := range loc.Nodes[1 : 1+c.Opts.M] {
		o := c.OSD(node)
		c.Tr.Register(o.ID(), func(hctx context.Context, msg *wire.Msg) *wire.Resp {
			if msg.Kind == wire.KBlockFetch {
				return &wire.Resp{Err: "injected disk failure"}
			}
			return o.Handler(hctx, msg)
		})
	}

	repl := newTestReplacement(t, c, victim.ID())
	defer repl.Close()
	res, err := c.Recover(context.Background(), victim.ID(), repl)
	if err == nil {
		t.Fatal("expected a data-loss error")
	}
	var dl *DataLossError
	if !errors.As(err, &dl) {
		t.Fatalf("error is %T (%v), want *DataLossError", err, err)
	}
	if dl.Unreachable+dl.NotFound == 0 && dl.Have >= dl.Need {
		t.Fatalf("implausible data-loss detail: %+v", dl)
	}
	if res == nil {
		t.Fatal("data loss must still return the partial result")
	}
	if res.Lost == 0 {
		t.Fatal("no stripe accounted as lost")
	}
	if res.Skipped != 0 {
		t.Fatalf("%d written stripes misclassified as never-written", res.Skipped)
	}
	for _, sr := range res.Stripes {
		if sr.Lost && sr.Skipped {
			t.Fatal("a stripe is both lost and skipped")
		}
	}
}

// TestBlockFetchNotFoundStructured pins the wire-level distinction the
// recovery classification relies on.
func TestBlockFetchNotFoundStructured(t *testing.T) {
	c := MustNewCluster(testOptions("tsue"))
	defer c.Close()
	resp, err := c.Tr.Caller(wire.MDSNode).Call(context.Background(), c.OSDs[0].ID(), &wire.Msg{
		Kind: wire.KBlockFetch, Block: wire.BlockID{Ino: 9999, Stripe: 0, Idx: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.IsNotFound() {
		t.Fatalf("missing block reply not structured: %+v", resp)
	}
	if !errors.Is(resp.Error(), wire.ErrNotFound) {
		t.Fatalf("resp.Error() = %v, want wrap of wire.ErrNotFound", resp.Error())
	}
}

type errReadMismatch struct {
	off int64
	n   int
}

func (e errReadMismatch) Error() string {
	return "degraded read mismatch during recovery"
}
