package ecfs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/erasure"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// maxStaleRetries bounds how many times a request is retried after a
// stale-epoch rejection or a transport error before giving up. Each
// retry re-resolves the placement at the MDS first, so one round trip
// suffices in the common case; the bound only matters when the MDS
// itself keeps handing out a placement the OSDs reject.
const maxStaleRetries = 3

// stripeWriteBudget is the liveness backstop on a detached stripe
// fan-out: far above any healthy shard round-trip, tight enough that a
// half-open connection to a hung OSD cannot wedge a write forever.
const stripeWriteBudget = 2 * time.Minute

// writeCoalesceStripes is the coalescing window of the striped write
// path: File.WriteAt encodes up to this many stripes
// at once and fan out *all* of their shard frames in a single batch, so
// a batch-capable transport flushes every same-destination frame of the
// window in one writev. The window bounds the memory pinned per write
// (window × K+M × blockSize of encoded shards) and sets the
// cancellation granularity — the caller's ctx is observed between
// windows, never inside one.
const writeCoalesceStripes = 8

// Client is the POSIX-facing access component (§4): it encodes normal
// writes into stripes, distinguishes writes from updates, routes updates
// to the data block's OSD, and reads with location caching.
//
// Files are reached only through handles: Open returns a *File
// (io.ReaderAt / io.WriterAt / io.Closer plus UpdateAt and ReadRange),
// and every context the caller gives is honored at every priced step of
// the call chain.
//
// Cancellation semantics: updates and reads abort between priced steps
// (an aborted multi-part update may be torn across blocks, like any
// interrupted POSIX write). Normal writes are stripe-atomic at
// coalescing-window granularity — the context is checked before each
// window of up to writeCoalesceStripes stripes is placed, and once a
// window's shard fan-out begins it runs to completion (bounded only by
// the stripeWriteBudget liveness backstop) — so a cancelled WriteAt
// never leaves a stripe bound at the MDS without all its shards stored.
//
// Cached placements carry their epoch (wire.StripeLoc.Epoch). When an
// OSD rejects a request with wire.StatusStaleEpoch — recovery rebound
// the stripe onto a different node set — or a cached node is
// unreachable, the client transparently re-resolves the placement at
// the MDS and retries, so callers never observe a rebind.
type Client struct {
	id        wire.NodeID
	rpc       transport.RPC
	code      *erasure.Code
	blockSize int

	locMu sync.RWMutex
	locs  map[stripeAddr]wire.StripeLoc

	degraded atomic.Int64 // reads served by K-way reconstruction
	hints    atomic.Int64 // repair-priority hints sent after degraded reads
}

// ClientStats counts client-side repair-relevant events.
type ClientStats struct {
	// DegradedReads is the number of block-range reads that had to be
	// reconstructed from K surviving shards instead of being served by
	// the block's holder.
	DegradedReads int64
	// RepairHints is the number of wire.KRepairHint promotions sent to
	// the MDS after degraded reads (read-through repair).
	RepairHints int64
}

// Stats returns a snapshot of the client's counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		DegradedReads: c.degraded.Load(),
		RepairHints:   c.hints.Load(),
	}
}

type stripeAddr struct {
	ino    uint64
	stripe uint32
}

// NewClient builds a client talking over rpc with the given stripe
// geometry.
func NewClient(id wire.NodeID, rpc transport.RPC, code *erasure.Code, blockSize int) *Client {
	return &Client{id: id, rpc: rpc, code: code, blockSize: blockSize, locs: make(map[stripeAddr]wire.StripeLoc)}
}

// StripeSpan returns the bytes of file data covered by one stripe.
func (c *Client) StripeSpan() int { return c.code.K * c.blockSize }

// Open opens-or-creates a file and returns a handle bound to ctx (the
// handle's io.ReaderAt/io.WriterAt methods, which cannot accept a
// context, use the one given here).
func (c *Client) Open(ctx context.Context, name string) (*File, error) {
	resp, err := c.rpc.Call(ctx, wire.MDSNode, &wire.Msg{Kind: wire.KMDSCreate, Name: name})
	if err != nil {
		return nil, err
	}
	defer resp.Release()
	if err := resp.Error(); err != nil {
		return nil, err
	}
	return &File{cli: c, ino: resp.Ino, name: name, ctx: ctx}, nil
}

// lookup resolves one stripe's placement, serving the cache first. With
// bind the MDS places an unplaced stripe on first touch (writes and
// updates — an update may arrive before the stripe's full write);
// without it an unplaced stripe fails with wire.ErrNotFound and nothing
// changes at the MDS, which is what a read past the written end needs.
func (c *Client) lookup(ctx context.Context, ino uint64, stripe uint32, bind bool) (wire.StripeLoc, error) {
	key := stripeAddr{ino, stripe}
	c.locMu.RLock()
	loc, ok := c.locs[key]
	c.locMu.RUnlock()
	if ok {
		return loc, nil
	}
	msg := &wire.Msg{Kind: wire.KMDSLookup, Block: wire.BlockID{Ino: ino, Stripe: stripe}}
	if !bind {
		msg.Flag = wire.LookupNoBind
	}
	resp, err := c.rpc.Call(ctx, wire.MDSNode, msg)
	if err != nil {
		return wire.StripeLoc{}, err
	}
	// Loc.Nodes is decoded into its own allocation (never aliasing the
	// response buffer), so the placement may be cached past the release.
	defer resp.Release()
	if err := resp.Error(); err != nil {
		return wire.StripeLoc{}, err
	}
	c.cacheLoc(key, resp.Loc)
	return resp.Loc, nil
}

// cacheLoc installs a freshly resolved placement, never clobbering a
// newer one a concurrent refresh installed while the lookup was in
// flight.
func (c *Client) cacheLoc(key stripeAddr, loc wire.StripeLoc) {
	c.locMu.Lock()
	if cur, ok := c.locs[key]; !ok || loc.Epoch >= cur.Epoch {
		c.locs[key] = loc
	}
	c.locMu.Unlock()
}

// refreshLoc re-resolves one stripe's placement after an attempt with
// epoch `stale` failed. If the cache already holds a newer placement —
// a concurrent part of the same request refreshed it first — that copy
// is returned without another MDS round trip, so a rebind costs one
// lookup per client, not one per in-flight shard.
func (c *Client) refreshLoc(ctx context.Context, ino uint64, stripe uint32, stale uint64) (wire.StripeLoc, error) {
	key := stripeAddr{ino, stripe}
	c.locMu.Lock()
	if cur, ok := c.locs[key]; ok && cur.Epoch > stale {
		c.locMu.Unlock()
		return cur, nil
	}
	delete(c.locs, key)
	c.locMu.Unlock()
	return c.lookup(ctx, ino, stripe, true)
}

// lookupWindow resolves placements for n consecutive stripes, serving
// cache hits locally and batching every miss into one KMDSLookup
// fan-out — a cold multi-stripe write pays one coalesced MDS flush, not
// one round trip per stripe. Failures are per stripe: errs[s] != nil
// means stripe s has no usable placement (locs[s] is zero).
func (c *Client) lookupWindow(ctx context.Context, ino uint64, first uint32, n int) ([]wire.StripeLoc, []error) {
	locs := make([]wire.StripeLoc, n)
	errs := make([]error, n)
	var miss []int
	c.locMu.RLock()
	for s := 0; s < n; s++ {
		if loc, ok := c.locs[stripeAddr{ino, first + uint32(s)}]; ok {
			locs[s] = loc
		} else {
			miss = append(miss, s)
		}
	}
	c.locMu.RUnlock()
	if len(miss) == 0 {
		return locs, errs
	}
	calls := make([]*transport.BatchCall, len(miss))
	for i, s := range miss {
		calls[i] = &transport.BatchCall{To: wire.MDSNode, Msg: &wire.Msg{
			Kind: wire.KMDSLookup, Block: wire.BlockID{Ino: ino, Stripe: first + uint32(s)},
		}}
	}
	c.rpc.CallBatch(ctx, calls)
	for i, s := range miss {
		bc := calls[i]
		if bc.Err != nil {
			errs[s] = bc.Err
			continue
		}
		if err := bc.Resp.Error(); err != nil {
			errs[s] = err
		} else {
			c.cacheLoc(stripeAddr{ino, first + uint32(s)}, bc.Resp.Loc)
			locs[s] = bc.Resp.Loc
		}
		bc.Resp.Release()
	}
	return locs, errs
}

// writeWindow encodes and distributes a window of n consecutive stripes
// starting at `first`. data holds the window's file bytes in stripe
// order; every stripe but the last must be full, and a short tail is
// zero-padded. Returns per-stripe costs and errors — a failed shard
// degrades only its own stripe.
//
// This is the cross-stripe coalescing core: placements for the whole
// window are resolved up front (lookupWindow), every stripe is encoded,
// and all n×(K+M) shard frames are issued as a single batch — so on a
// batch-capable transport every same-destination frame of the *window*
// enters its connection's write queue together and leaves in one
// coalesced flush per destination. KWriteBlock is a full-block
// overwrite — idempotent — so any shard that fails the fast path (node
// unreachable, stale placement) safely drops to the per-shard
// re-resolve loop, which retries only that shard.
//
// Cancellation is checked once at entry; past that point the window
// ignores the caller's ctx (cancel and deadline alike), so a stripe is
// never left bound at the MDS with only some of its shards stored
// (Scrub's invariant). Detached must not mean unbounded, though — over
// TCP an OSD that accepts the connection and never replies would
// otherwise hang the write forever — so the fan-out runs under the
// stripeWriteBudget liveness backstop; should that fire, the write
// errors out and the stripe may be left short of shards for Scrub to
// flag.
func (c *Client) writeWindow(ctx context.Context, ino uint64, first uint32, data []byte, n int) ([]time.Duration, []error) {
	costs := make([]time.Duration, n)
	errs := make([]error, n)
	if err := ctx.Err(); err != nil {
		for s := range errs {
			errs[s] = err
		}
		return costs, errs
	}
	ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), stripeWriteBudget)
	defer cancel()
	span := c.StripeSpan()
	locs, errs := c.lookupWindow(ctx, ino, first, n)
	type shardRef struct {
		stripe int
		idx    int
		shard  []byte
	}
	var (
		calls []*transport.BatchCall
		refs  []shardRef
	)
	for s := 0; s < n; s++ {
		if errs[s] != nil {
			continue
		}
		chunk := data[s*span : min(len(data), (s+1)*span)]
		if len(chunk) < span {
			padded := make([]byte, span)
			copy(padded, chunk)
			chunk = padded
		}
		shards := make([][]byte, c.code.K)
		for i := range shards {
			// Interior shards alias the caller's buffer directly — the
			// OSD's blockstore copies on ingest, so no stripe-local copy
			// is needed.
			shards[i] = chunk[i*c.blockSize : (i+1)*c.blockSize]
		}
		parity, err := c.code.Encode(shards)
		if err != nil {
			errs[s] = err
			continue
		}
		all := append(shards, parity...)
		for i, shard := range all {
			calls = append(calls, &transport.BatchCall{To: locs[s].Nodes[i], Msg: &wire.Msg{
				Kind:  wire.KWriteBlock,
				Block: wire.BlockID{Ino: ino, Stripe: first + uint32(s), Idx: uint8(i)},
				Data:  shard,
				Loc:   locs[s],
			}})
			refs = append(refs, shardRef{s, i, shard})
		}
	}
	c.rpc.CallBatch(ctx, calls)
	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	setCost := func(s int, cost time.Duration) {
		if cost > costs[s] {
			costs[s] = cost
		}
	}
	for ci, bc := range calls {
		ref := refs[ci]
		if bc.Err == nil && bc.Resp.OK() {
			mu.Lock()
			setCost(ref.stripe, bc.Resp.Cost)
			mu.Unlock()
			bc.Resp.Release()
			continue
		}
		if bc.Err == nil && !bc.Resp.IsStale() {
			// A structured, non-stale rejection (bad geometry, storage
			// failure): re-resolving the placement cannot change it.
			mu.Lock()
			if errs[ref.stripe] == nil {
				errs[ref.stripe] = bc.Resp.Error()
			}
			mu.Unlock()
			bc.Resp.Release()
			continue
		}
		if bc.Err == nil {
			bc.Resp.Release()
		}
		wg.Add(1)
		go func(ref shardRef, loc wire.StripeLoc) {
			defer wg.Done()
			b := wire.BlockID{Ino: ino, Stripe: first + uint32(ref.stripe), Idx: uint8(ref.idx)}
			cost, err := c.writeShard(ctx, b, ref.shard, loc)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if errs[ref.stripe] == nil {
					errs[ref.stripe] = err
				}
				return
			}
			setCost(ref.stripe, cost)
		}(ref, locs[ref.stripe])
	}
	wg.Wait()
	return costs, errs
}

// sendWithReresolve delivers one block-addressed request, re-resolving
// the placement and retrying when the target rejects a stale epoch or
// is unreachable. send is invoked with the placement to use for the
// attempt. A refresh that returns an unchanged placement stops the
// loop: the MDS agrees with the cache, so the failure is real. A
// cancelled ctx stops the loop immediately.
//
// Retry safety: a stale-epoch *rejection* happens before any server
// state changes, so it may always be retried — even to the same node,
// with the refreshed placement. A *transport* error, however, can (on
// the TCP transport) mean "applied but the reply was lost"; a
// non-idempotent request (idempotent=false) is therefore retried after
// a transport error only if the block's host changed — a node that may
// already have applied it is never re-delivered to.
//
// A refresh that fails right after a stale-epoch rejection returns an
// error wrapping both wire.ErrStaleEpoch and the refresh failure: the
// holder is alive and has moved on, and callers must be able to tell
// that from an unreachable holder.
//
// Buffer ownership: every failed attempt's response is released here;
// the successful response is returned and becomes the caller's to
// Release once it is done with Resp.Data.
func (c *Client) sendWithReresolve(ctx context.Context, b wire.BlockID, loc wire.StripeLoc, idempotent bool, send func(loc wire.StripeLoc) (*wire.Resp, error)) (*wire.Resp, error) {
	var (
		lastErr   error
		lastStale bool
	)
	for attempt := 0; attempt <= maxStaleRetries; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return nil, lastErr
			}
			return nil, err
		}
		if attempt > 0 {
			nl, err := c.refreshLoc(ctx, b.Ino, b.Stripe, loc.Epoch)
			if err != nil {
				if lastStale {
					return nil, fmt.Errorf("%w (re-resolve: %w)", lastErr, err)
				}
				return nil, err
			}
			sameHost := nl.Nodes[b.Idx] == loc.Nodes[b.Idx]
			if nl.Epoch == loc.Epoch && sameHost {
				return nil, lastErr
			}
			if sameHost && !lastStale && !idempotent {
				return nil, lastErr
			}
			loc = nl
		}
		resp, err := send(loc)
		if err != nil {
			lastErr, lastStale = err, false
			continue
		}
		if resp.IsStale() {
			lastErr, lastStale = resp.Error(), true
			resp.Release()
			continue
		}
		if e := resp.Error(); e != nil {
			resp.Release()
			return nil, e
		}
		return resp, nil
	}
	return nil, lastErr
}

// writeShard delivers one stripe member with placement re-resolution
// (idempotent: a full-block overwrite may be re-delivered freely).
func (c *Client) writeShard(ctx context.Context, b wire.BlockID, shard []byte, loc wire.StripeLoc) (time.Duration, error) {
	resp, err := c.sendWithReresolve(ctx, b, loc, true, func(loc wire.StripeLoc) (*wire.Resp, error) {
		return c.rpc.Call(ctx, loc.Nodes[b.Idx], &wire.Msg{Kind: wire.KWriteBlock, Block: b, Data: shard, Loc: loc})
	})
	if err != nil {
		return 0, err
	}
	cost := resp.Cost
	resp.Release()
	return cost, nil
}

// writeStripes chunks data into stripes starting at stripe `first`
// (zero-padding the tail) and writes them in coalescing windows of
// writeCoalesceStripes through writeWindow — the striping loop behind
// File.WriteAt. The context is checked before every window: a cancelled
// write stops at a window boundary, with every already-written stripe
// complete and no partial stripe bound at the MDS. It returns the number of
// contiguous stripes completed from the start: on error, every stripe
// before the reported count is fully stored (later stripes of the same
// window may also have landed, but the count never skips a failure).
func (c *Client) writeStripes(ctx context.Context, ino uint64, first uint32, data []byte) (int, error) {
	span := c.StripeSpan()
	stripes := (len(data) + span - 1) / span
	done := 0
	for done < stripes {
		if err := ctx.Err(); err != nil {
			return done, err
		}
		n := min(writeCoalesceStripes, stripes-done)
		lo := done * span
		hi := min(len(data), (done+n)*span)
		_, errs := c.writeWindow(ctx, ino, first+uint32(done), data[lo:hi], n)
		for s := 0; s < n; s++ {
			if errs[s] != nil {
				return done + s, errs[s]
			}
		}
		done += n
	}
	return done, nil
}

// updatePart routes one split of an update to its data block's OSD with
// placement re-resolution. The update is not idempotent, so
// sendWithReresolve only retries it to a *different* host after a
// transport error (the prior target is dead or rebound away — its
// state is discarded by recovery); stale-epoch rejections retry freely.
func (c *Client) updatePart(ctx context.Context, p part, payload []byte, v time.Duration) (time.Duration, error) {
	resp, err := c.sendWithReresolve(ctx, p.block, p.loc, false, func(loc wire.StripeLoc) (*wire.Resp, error) {
		return c.rpc.Call(ctx, loc.Nodes[p.block.Idx], &wire.Msg{
			Kind:  wire.KUpdate,
			Block: p.block,
			Off:   p.off,
			Data:  payload,
			K:     uint8(c.code.K),
			M:     uint8(c.code.M),
			Loc:   loc,
			V:     int64(v),
		})
	})
	if err != nil {
		return 0, err
	}
	cost := resp.Cost
	resp.Release()
	return cost, nil
}

// readInto fills p from [off, off+len(p)) of a file and returns the
// modeled latency (the slowest part; parts proceed concurrently). Every
// part's reply is read straight into its own slice of p. A one-part
// read runs inline; a read spanning blocks sends all its parts as one
// batch — one flush per holder — and only the parts the batch could not
// serve (stale placement, unreachable holder, error reply) go on to
// readPart's re-resolve and degraded path, concurrently. On error p may
// be partly filled.
func (c *Client) readInto(ctx context.Context, ino uint64, off int64, p []byte) (time.Duration, error) {
	parts, err := c.split(ctx, ino, off, len(p), false)
	if err != nil {
		return 0, err
	}
	switch len(parts) {
	case 0:
		return 0, nil
	case 1:
		return c.readPart(ctx, parts[0], p)
	}
	calls := make([]*transport.BatchCall, len(parts))
	for i, pt := range parts {
		calls[i] = &transport.BatchCall{To: pt.loc.Nodes[pt.block.Idx], Msg: readMsg(pt, pt.loc, p[pt.src:pt.src+pt.n])}
	}
	c.rpc.CallBatch(ctx, calls)
	var (
		wg                   sync.WaitGroup
		mu                   sync.Mutex
		batchCost, retryCost time.Duration
		rerr                 error
	)
	for i, bc := range calls {
		pt, dst := parts[i], p[parts[i].src:parts[i].src+parts[i].n]
		if bc.Err == nil && bc.Resp.OK() {
			batchCost = max(batchCost, bc.Resp.Cost)
			fillFrom(dst, bc.Resp)
			continue
		}
		if bc.Err == nil {
			bc.Resp.Release()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			cost, err := c.readPart(ctx, pt, dst)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				rerr = err
				return
			}
			retryCost = max(retryCost, cost)
		}()
	}
	wg.Wait()
	return max(batchCost, retryCost), rerr
}

// readMsg builds the KRead of one part under placement loc, its reply
// payload bound for dst.
func readMsg(p part, loc wire.StripeLoc, dst []byte) *wire.Msg {
	m := &wire.Msg{Kind: wire.KRead, Block: p.block, Off: p.off, Size: uint32(p.n), Loc: loc}
	m.SetReplyBuf(dst)
	return m
}

// fillFrom completes a part's read from its successful reply. A
// transport that honoured the reply buffer has already put the payload
// in dst; any other reply is copied. A short payload leaves the rest of
// dst zero, and the reply's pooled buffer (if any) is released.
func fillFrom(dst []byte, resp *wire.Resp) {
	if n := len(resp.Data); n > 0 && &resp.Data[0] != &dst[0] {
		copy(dst, resp.Data)
	}
	clear(dst[min(len(resp.Data), len(dst)):])
	resp.Release()
}

// readPart serves one block-range read into dst (len(dst) == p.n). The
// normal path ships the cached placement so the holder can epoch-check
// it: a stale-epoch rejection or an unreachable holder re-resolves at
// the MDS and retries — after a repair or drain rebinds the stripe,
// this is how the read cuts over to the new holder with no K-way
// decode. Only when the normal path is exhausted — and the holder did
// not answer that the placement is stale — does the read degrade to
// reconstruction, and then it tells the MDS (wire.KRepairHint) so an
// in-flight repair promotes the stripe to the front of its queue.
//
// Every attempt names dst as its reply buffer, so over TCP the payload
// is read off the socket straight into the caller's memory.
func (c *Client) readPart(ctx context.Context, p part, dst []byte) (time.Duration, error) {
	resp, err := c.sendWithReresolve(ctx, p.block, p.loc, true, func(loc wire.StripeLoc) (*wire.Resp, error) {
		return c.rpc.Call(ctx, loc.Nodes[p.block.Idx], readMsg(p, loc, dst))
	})
	if err == nil {
		cost := resp.Cost
		fillFrom(dst, resp)
		return cost, nil
	}
	// A holder that rejected the placement as stale is alive and has
	// moved on; when no fresher placement could be resolved (the MDS is
	// down, say), the survivors of the stale one may be retired copies
	// and parity that stage 2 has not caught up with, so reconstructing
	// from them could serve bytes older than an acknowledged write. The
	// read fails instead — a transient stale-epoch error.
	if ctx.Err() != nil || errors.Is(err, wire.ErrStaleEpoch) {
		return 0, err
	}
	// Degraded read: the block's holder cannot serve it (node down, or
	// the block is mid-migration), so rebuild the requested range from K
	// surviving blocks — under the freshest placement the retry loop
	// left in the cache.
	if nl, lerr := c.lookup(ctx, p.block.Ino, p.block.Stripe, false); lerr == nil {
		p.loc = nl
	}
	cost, derr := c.degradedRead(ctx, p, dst)
	if derr != nil {
		return 0, fmt.Errorf("%w (degraded fallback: %v)", err, derr)
	}
	c.degraded.Add(1)
	c.hintRepair(ctx, p.block)
	return cost, nil
}

// hintRepair tells the MDS a degraded read just paid the K-fetch decode
// price for a stripe, so an active repair can promote it to the front
// of its rebuild queue (read-through repair). Best effort: with no
// repair running the MDS ignores the hint.
func (c *Client) hintRepair(ctx context.Context, b wire.BlockID) {
	c.hints.Add(1)
	if resp, err := c.rpc.Call(ctx, wire.MDSNode, &wire.Msg{Kind: wire.KRepairHint, Block: b}); err == nil {
		resp.Release()
	}
}

// degradedRead reconstructs one part's byte range from stripe survivors
// into dst — the degraded-read path an erasure-coded file system must
// serve while a node is down and recovery has not yet completed. It
// reflects the last *recycled* state: updates still buffered in the
// failed node's DataLog are only restored by recovery's replica-log
// replay (Cluster.Recover).
//
// The K survivor blocks come from gatherSurvivors. Decoding is
// byte-wise, so just the requested range of the one lost block is
// decoded, straight into dst. The survivor shards alias pooled response
// buffers, held until the decode is done and only then released.
func (c *Client) degradedRead(ctx context.Context, p part, dst []byte) (time.Duration, error) {
	k := c.code.K
	lost := int(p.block.Idx)
	lo, hi := int(p.off), int(p.off)+p.n
	// Untagged fetches are priced as foreground reads.
	g := gatherSurvivors(ctx, c.rpc, p.block, p.loc, k, lost, nil, sim.ClassOther)
	defer g.release()
	if len(g.held) < k {
		return 0, fmt.Errorf("ecfs: degraded read of %v: only %d of %d shards reachable", p.block, len(g.held), k)
	}
	shards := g.shards
	for idx, s := range shards {
		if s == nil {
			continue
		}
		if len(s) < hi {
			return 0, fmt.Errorf("ecfs: degraded read of %v: range beyond block", p.block)
		}
		shards[idx] = s[lo:hi]
	}
	if err := c.code.ReconstructTo(dst, shards, lost); err != nil {
		return 0, fmt.Errorf("ecfs: degraded read of %v: %w", p.block, err)
	}
	return g.cost, nil
}

// survivors is what gatherSurvivors fetched for one stripe.
type survivors struct {
	// shards is indexed by block index, as a decode takes it; nil where
	// no shard was fetched. Each shard aliases a reply in held.
	shards      [][]byte
	held        []*wire.Resp
	cost        time.Duration // each wave's slowest fetch, waves summed
	retries     int           // failed fetches of any cause
	unreachable int           // failed fetches where the holder did not answer (transport error)
	notFound    int           // structured not-found replies from reachable holders
}

// release returns the held replies to the pool; the shards are invalid
// afterwards.
func (g *survivors) release() {
	for _, r := range g.held {
		r.Release()
	}
}

// gatherSurvivors fetches K shards of stripe's blocks for a decode that
// rebuilds block index lost. Candidates are loc's holders in index
// order, skipping lost and any node in down. The first wave asks the
// first K candidates at once, as one CallBatch of KBlockFetch
// calls tagged with class; only the fetches that fail fall through to a
// further wave over the candidates left. A wave costs its slowest fetch
// and waves add up. The caller must release the result.
func gatherSurvivors(ctx context.Context, rpc transport.RPC, stripe wire.BlockID, loc wire.StripeLoc, k, lost int, down map[wire.NodeID]bool, class sim.Class) *survivors {
	g := &survivors{shards: make([][]byte, len(loc.Nodes)), held: make([]*wire.Resp, 0, k)}
	cands := make([]int, 0, len(loc.Nodes))
	for idx, node := range loc.Nodes {
		if idx != lost && !down[node] {
			cands = append(cands, idx)
		}
	}
	for len(g.held) < k && len(cands) > 0 {
		wave := cands[:min(k-len(g.held), len(cands))]
		cands = cands[len(wave):]
		calls := make([]*transport.BatchCall, len(wave))
		for i, idx := range wave {
			calls[i] = &transport.BatchCall{To: loc.Nodes[idx], Msg: &wire.Msg{
				Kind: wire.KBlockFetch, Block: stripe.WithIdx(uint8(idx)), Class: class,
			}}
		}
		rpc.CallBatch(ctx, calls)
		var waveMax time.Duration
		for i, bc := range calls {
			if bc.Err != nil || !bc.Resp.OK() {
				g.retries++
				if bc.Err != nil {
					g.unreachable++
				} else {
					if bc.Resp.IsNotFound() {
						g.notFound++
					}
					bc.Resp.Release()
				}
				continue
			}
			g.held = append(g.held, bc.Resp)
			g.shards[wave[i]] = bc.Resp.Data
			waveMax = max(waveMax, bc.Resp.Cost)
		}
		g.cost += waveMax
	}
	return g
}

// part maps a byte range of a file request onto one data block. The
// block's current host is derived from loc at send time (loc may be
// refreshed by the stale-epoch retry loop).
type part struct {
	block wire.BlockID
	loc   wire.StripeLoc
	off   uint32 // intra-block offset
	src   int    // offset within the request payload
	n     int
}

// split maps [off, off+size) of a file onto its data blocks, resolving
// each stripe's placement through lookup (bind as there).
func (c *Client) split(ctx context.Context, ino uint64, off int64, size int, bind bool) ([]part, error) {
	if off < 0 || size < 0 {
		return nil, fmt.Errorf("ecfs: negative range")
	}
	span := int64(c.StripeSpan())
	var parts []part
	src := 0
	for size > 0 {
		stripe := uint32(off / span)
		inStripe := off % span
		blockIdx := int(inStripe) / c.blockSize
		blockOff := uint32(int(inStripe) % c.blockSize)
		n := min(size, c.blockSize-int(blockOff))
		loc, err := c.lookup(ctx, ino, stripe, bind)
		if err != nil {
			return nil, err
		}
		b := wire.BlockID{Ino: ino, Stripe: stripe, Idx: uint8(blockIdx)}
		parts = append(parts, part{
			block: b, loc: loc,
			off: blockOff, src: src, n: n,
		})
		off += int64(n)
		src += n
		size -= n
	}
	return parts, nil
}
