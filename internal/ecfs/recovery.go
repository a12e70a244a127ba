package ecfs

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/erasure"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/update"
	"repro/internal/wire"
)

// DefaultRecoveryWorkers is the stripe-rebuild parallelism used when
// Options.RecoveryWorkers is zero.
const DefaultRecoveryWorkers = 4

// StripeRecovery records the rebuild of one lost block.
type StripeRecovery struct {
	Ino         uint64
	Stripe      uint32
	Idx         uint8
	Bytes       int
	Replayed    int64         // replica-log bytes replayed onto this block
	Fetch       time.Duration // slowest of the concurrent shard fetches
	Replay      time.Duration // replica-log fetch + parity-delta forwarding
	Write       time.Duration // store write on the replacement
	Retries     int           // failed fetch attempts of any cause that fell back to another holder
	Unreachable int           // failed fetch attempts where the holder did not answer at all (transport error)
	NotFound    int           // structured "block never written" replies from reachable holders
	Obtained    int           // surviving shards actually fetched
	Skipped     bool          // fewer than K shards obtainable, all misses structured not-found (never fully written)
	Lost        bool          // fewer than K shards obtainable with >= 1 holder unreachable (possible data loss)
	Rebound     bool          // placement rebound onto the replacement with a bumped epoch
	// Order is the stripe's 0-based position in the rebuild order the
	// repair queue actually executed. Without promotions it equals the
	// stripe's FIFO rank; a degraded-read hint moves a hot stripe's
	// Order ahead of colder stripes seeded before it.
	Order int
}

// DataLossError reports that recovery could not obtain K shards of a
// stripe because holders were unreachable — as opposed to a stripe that
// was never fully written, whose reachable holders all answer with a
// structured not-found and which is merely skipped. The distinction is
// exactly transport error versus wire.StatusNotFound reply.
type DataLossError struct {
	Ino         uint64
	Stripe      uint32
	Have        int // shards obtained
	Need        int // K
	Unreachable int // holders that did not answer at all
	NotFound    int // reachable holders without the block
	Stripes     int // total stripes in this state for the recovery
}

// Error renders the loss: which stripe, the shard arithmetic, and how
// many stripes the recovery left in this state.
func (e *DataLossError) Error() string {
	return fmt.Sprintf(
		"ecfs: data loss: stripe %d/%d has %d of %d needed shards (%d holders unreachable, %d never written); %d stripe(s) affected",
		e.Ino, e.Stripe, e.Have, e.Need, e.Unreachable, e.NotFound, e.Stripes)
}

// Time is the stripe's synchronous rebuild latency: the parallel fetch
// fan-out completes at its slowest member, then replica replay and the
// replacement write extend the path.
func (s StripeRecovery) Time() time.Duration { return s.Fetch + s.Replay + s.Write }

// RecoveryResult summarizes a completed recovery.
type RecoveryResult struct {
	Blocks        int
	Bytes         int64
	ReplayedBytes int64 // pending updates replayed from replica logs
	Skipped       int   // never-fully-written stripes (< K shards, all misses structured not-found)
	// Lost counts stripes that could not be rebuilt because holders
	// were unreachable (< K shards with >= 1 transport error). When
	// Lost > 0, Recover also returns a *DataLossError describing the
	// first such stripe — alongside the result, so the caller still
	// sees what *was* rebuilt.
	Lost int
	// Rebound counts placements rewritten onto the replacement under a
	// bumped epoch (fresh-id recovery only; a same-id replacement
	// reuses the victim's placements unchanged).
	Rebound int
	// FetchErrors counts shard fetches that failed because the holder was
	// unreachable (transport error). Absent-block replies — the normal
	// state of a never-fully-written stripe — fall back too but are
	// counted only in the per-stripe Retries and NotFound.
	FetchErrors int
	repairTiming
	// Stripes holds per-stripe timing in deterministic
	// (Ino, Stripe, Idx) order.
	Stripes []StripeRecovery
}

// Recover rebuilds every block the failed node hosted onto the
// replacement OSD (which must already be registered under a live node
// id), using K surviving blocks per stripe. Logs are drained first —
// exactly the consistency requirement of §2.3.2 — and the drain cost is
// part of the measured recovery time, which is how pending logs depress
// recovery bandwidth for the deferred-recycle baselines (Fig. 8b).
//
// The replacement may carry the victim's node id (the classic
// drop-in-replacement flow) or a *fresh* id admitted via
// Cluster.Reinstate. With a fresh id, every rebuilt — and every placed but
// never-written — stripe is rebound at the MDS onto the replacement
// under a bumped placement epoch, and the new epoch is broadcast to the
// stripe's surviving members so they reject stale client placements
// (wire.StatusStaleEpoch) until those clients re-resolve.
//
// A stripe with fewer than K obtainable shards is classified by *why*
// the shards are missing: if every miss is a structured not-found reply
// from a reachable holder the stripe was never fully written and is
// skipped; if any holder was unreachable (transport error) the stripe
// is counted in RecoveryResult.Lost and Recover returns a
// *DataLossError alongside the (otherwise complete) result.
//
// The rebuild is pipelined: each stripe's K shard fetches fan out
// concurrently, and Options.RecoveryWorkers stripes rebuild in parallel.
// A shard fetch that fails — the holder is unreachable or answers with an
// error — falls back to the remaining live shard holders of the stripe
// instead of aborting the rebuild; a stripe is skipped (not failed) only
// when fewer than K shards are obtainable at all, which is also the
// legitimate state of a never-fully-written stripe. The reconstructed
// bytes are independent of the worker count: any K shards of an RS
// stripe decode to the same content.
//
// Recover wraps the deployment-agnostic RepairNode engine with this
// cluster's MDS, transport and virtual-time resources; while the
// rebuild runs, degraded client reads promote their stripe to the front
// of the repair queue (send wire.KRepairHint) so hot stripes repair
// first.
func (c *Cluster) Recover(ctx context.Context, failed wire.NodeID, replacement *OSD) (*RecoveryResult, error) {
	return c.recover(ctx, failed, replacement, false)
}

// RecoverFIFO is Recover with degraded-read promotion disabled: the
// rebuild order is strictly the deterministic FIFO seed order. It is
// the baseline the repair benchmark compares prioritized repair
// against.
func (c *Cluster) RecoverFIFO(ctx context.Context, failed wire.NodeID, replacement *OSD) (*RecoveryResult, error) {
	return c.recover(ctx, failed, replacement, true)
}

func (c *Cluster) recover(ctx context.Context, failed wire.NodeID, replacement *OSD, fifo bool) (*RecoveryResult, error) {
	o := c.repairOptions(fifo)
	o.Down = c.deadSet(failed)
	return RepairNode(ctx, c.MDS, c.Tr.Caller(replacement.id), c.code, o, failed, replacement)
}

// repairOptions assembles the RepairOptions for this cluster's
// geometry, worker count and timing model. Down is filled by
// the caller (recovery forces the victim in; drain must not).
func (c *Cluster) repairOptions(fifo bool) RepairOptions {
	return RepairOptions{
		K:         c.Opts.K,
		M:         c.Opts.M,
		Workers:   c.Opts.RecoveryWorkers,
		Resources: c.resources(),
		Flush:     c.Flush,
		NoPromote: fifo,
	}
}

// recoverer is the per-recovery engine state shared by the worker pool.
// It is deployment-agnostic: everything it touches besides the
// in-process replacement OSD goes through the MDS handle and the RPC
// caller, so the same engine rebuilds over the in-process transport and
// real TCP sockets.
type recoverer struct {
	ctx    context.Context // repair-run context; checked at every engine RPC
	mds    *MDS
	caller transport.RPC
	code   *erasure.Code
	k, m   int
	failed wire.NodeID
	repl   *OSD
	// down snapshots the failed set at recovery start. A node that dies
	// *during* the rebuild surfaces as fetch errors and is handled by
	// the per-stripe fallback.
	down map[wire.NodeID]bool
	// rebind is set when the replacement carries a different node id
	// than the victim: every handled stripe is then rebound at the MDS
	// under a bumped epoch and the survivors are notified.
	rebind bool
}

// isDown reports whether node is the victim or was down when the
// recovery started.
func (r *recoverer) isDown(node wire.NodeID) bool { return node == r.failed || r.down[node] }

// rebindStripe moves a stripe's placement from the victim to the
// replacement at the MDS (bumping the epoch) and broadcasts the new
// placement to the stripe's live members, so they start rejecting
// requests that carry the pre-recovery placement and route deltas to
// the replacement. The replacement learns (and journals) the same
// placement directly — its handler may not be registered yet. It
// reports whether the stripe was rebound.
func (r *recoverer) rebindStripe(ref StripeRef) (bool, error) {
	nl, err := r.mds.Rebind(ref.Ino, ref.Stripe, r.failed, r.repl.id)
	if err != nil {
		if errors.Is(err, ErrAlreadyPlaced) {
			// The replacement already hosts a block of this stripe
			// (possible only through the minimum-size-pool window
			// where the victim stayed placeable). The stripe keeps
			// its old placement — degraded until another node can
			// take the slot — rather than failing the recovery.
			return false, nil
		}
		return false, fmt.Errorf("ecfs: rebind %d/%d: %w", ref.Ino, ref.Stripe, err)
	}
	epoch := wire.Msg{
		Kind: wire.KEpochUpdate, Block: wire.BlockID{Ino: ref.Ino, Stripe: ref.Stripe}, Loc: nl, K: uint8(r.k), M: uint8(r.m), Class: sim.ClassRebuild,
	}
	if _, err := r.repl.learn(&epoch); err != nil {
		return false, fmt.Errorf("ecfs: rebind %d/%d: %w", ref.Ino, ref.Stripe, err)
	}
	broadcastEpoch(r.ctx, r.caller, epoch, r.down, r.repl.id, r.failed)
	return true, nil
}

// rebuildStripe reconstructs one lost block: fetch K surviving shards
// (gatherSurvivors, with fallback to further shard holders on error),
// decode, let the replacement's strategy replay what peers hold of the
// block's pending updates, and write the result to the replacement.
// The fetched shards are pooled reply buffers, held until the decoded
// block has been written and then released.
func (r *recoverer) rebuildStripe(ref StripeRef) (StripeRecovery, error) {
	sr := StripeRecovery{Ino: ref.Ino, Stripe: ref.Stripe, Idx: ref.Idx}
	// The victim holds ref.Idx, so skipping the lost index skips it.
	g := gatherSurvivors(r.ctx, r.caller, wire.BlockID{Ino: ref.Ino, Stripe: ref.Stripe}, ref.Loc, r.k, int(ref.Idx), r.down, sim.ClassRebuild)
	defer g.release()
	have := len(g.held)
	// A structured not-found is the normal state of a never-fully-written
	// stripe and is classified separately from transport errors.
	sr.Fetch, sr.Retries, sr.Unreachable, sr.NotFound = g.cost, g.retries, g.unreachable, g.notFound
	sr.Obtained = have
	switch {
	case have >= r.k:
		if err := r.code.Reconstruct(g.shards, int(ref.Idx)); err != nil {
			return sr, fmt.Errorf("ecfs: reconstruct %d/%d: %w", ref.Ino, ref.Stripe, err)
		}
		lost := wire.BlockID{Ino: ref.Ino, Stripe: ref.Stripe, Idx: ref.Idx}
		data := g.shards[ref.Idx]
		// The lost block may have updates the dead node had not
		// recycled yet; the strategy replays what its peers hold of
		// them (TSUE's DataLog replicas, §4.2) over the reconstructed
		// content.
		place := update.Placement{K: r.k, M: r.m, Loc: ref.Loc}
		var err error
		if sr.Replayed, sr.Replay, err = r.repl.strategy.ReplayReplicas(r.ctx, place, lost, data, r.isDown); err != nil {
			return sr, err
		}
		if sr.Write, err = r.repl.store.WriteFull(sim.ClassRebuild, lost, data, nil, true); err != nil {
			return sr, fmt.Errorf("ecfs: store rebuilt %v: %w", lost, err)
		}
		sr.Bytes = len(data)
	case sr.Unreachable > 0 || sr.Retries > sr.NotFound || have > 0:
		// Evidence the stripe's data exists but cannot be reassembled:
		// a holder did not answer at all (transport error), a reachable
		// holder failed with something other than a structured
		// not-found, or some shards *were* fetched yet fewer than K are
		// obtainable — possible data loss, surfaced to the caller as a
		// *DataLossError.
		sr.Lost = true
	default:
		// Every miss was a structured not-found from a reachable holder
		// and no shard exists anywhere: the stripe was never fully
		// written.
		sr.Skipped = true
	}
	// A fresh-id replacement takes over the placement slot even of a
	// stripe with no data to rebuild: otherwise the stripe keeps
	// referencing the retired node id forever, and even a full-stripe
	// rewrite — the one legitimate way to re-create a lost stripe —
	// could never succeed.
	if r.rebind {
		ok, err := r.rebindStripe(ref)
		if err != nil {
			return sr, err
		}
		sr.Rebound = ok
	}
	return sr, nil
}
