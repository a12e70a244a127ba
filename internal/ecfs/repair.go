// The repair subsystem: a prioritized queue of pending stripe
// migrations shared by failure recovery (RepairNode), the resilver of a
// restarted node (Cluster.Resilver) and planned drain/decommission
// (MigrateNode), all three driven by one repairRun.
//
// Each engine seeds the queue with a node's stripes in deterministic
// FIFO order and let a worker pool consume it. While a repair runs, the
// queue is registered with the MDS: a client whose degraded read just
// paid the K-fetch decode price sends a wire.KRepairHint, and the named
// stripe jumps to the front of the queue (read-through repair — hot
// stripes repair first). Every stripe is rebound at the MDS under a
// bumped placement epoch *as soon as it completes*, so clients cut over
// stripe by stripe: a repeated read of an already-repaired stripe is
// rejected with wire.StatusStaleEpoch (or fails to reach the retired
// holder), re-resolves, and becomes a normal read of the new holder —
// no K-way decode, no end-of-recovery barrier.
package ecfs

import (
	"bytes"
	"container/heap"
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"repro/internal/erasure"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/update"
	"repro/internal/wire"
)

// repairItem is one pending stripe repair.
type repairItem struct {
	ref  StripeRef
	seed int   // position in the deterministic seed order (= FIFO rank and result slot)
	prio int64 // promotion stamp; 0 = never promoted, higher = promoted more recently
	pos  int   // heap index
}

// repairQueue is the priority queue at the heart of the repair
// subsystem. Items seed in FIFO order; promote moves a still-pending
// stripe to the front (the most recent promotion wins ties). pop hands
// out work in priority order and stamps each item with its execution
// order, so results can prove how promotion reordered the rebuild.
// While its run is active the queue is registered with the cluster's
// RepairScheduler, which routes hint promotions to it and admits its
// workers against the rebuild-bandwidth budget.
type repairQueue struct {
	// noPromote freezes the queue in FIFO order: the scheduler skips it
	// when routing wire.KRepairHint promotions (the benchmark baseline).
	noPromote bool

	mu       sync.Mutex
	items    repairHeap
	byKey    map[stripeKey]*repairItem
	promoSeq int64
	popped   int
	promoted int
}

// repairHeap orders the queue's items for container/heap: promoted
// stripes first, then arrival order. Each item keeps its index (pos)
// so a promotion can heap.Fix it in place.
type repairHeap []*repairItem

// Len is the number of queued items.
func (h repairHeap) Len() int { return len(h) }

// Less puts promoted items first, the most recent promotion foremost,
// and otherwise keeps FIFO order.
func (h repairHeap) Less(i, j int) bool {
	if h[i].prio != h[j].prio {
		return h[i].prio > h[j].prio
	}
	return h[i].seed < h[j].seed
}

// Swap exchanges two items and their recorded positions.
func (h repairHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos, h[j].pos = i, j
}

// Push appends an item, recording its position.
func (h *repairHeap) Push(x any) {
	it := x.(*repairItem)
	it.pos = len(*h)
	*h = append(*h, it)
}

// Pop removes and returns the last item.
func (h *repairHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

// newRepairQueue seeds a queue with refs in their given (deterministic)
// order.
func newRepairQueue(refs []StripeRef) *repairQueue {
	q := &repairQueue{byKey: make(map[stripeKey]*repairItem, len(refs))}
	q.items = make(repairHeap, 0, len(refs))
	for i, ref := range refs {
		it := &repairItem{ref: ref, seed: i, pos: i}
		q.items = append(q.items, it)
		q.byKey[stripeKey{ref.Ino, ref.Stripe}] = it
	}
	// Seed order already satisfies the heap property (prio 0, seed
	// ascending), but initialize defensively.
	heap.Init(&q.items)
	return q
}

// pop removes the highest-priority pending stripe. order is the
// execution rank (0-based pop sequence).
func (q *repairQueue) pop() (ref StripeRef, seed, order int, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.items) == 0 {
		return StripeRef{}, 0, 0, false
	}
	it := heap.Pop(&q.items).(*repairItem)
	delete(q.byKey, stripeKey{it.ref.Ino, it.ref.Stripe})
	order = q.popped
	q.popped++
	return it.ref, it.seed, order, true
}

// promote moves a still-pending stripe to the front of the queue and
// reports whether it was pending at all (a hint for a stripe already
// repaired or in flight is a no-op).
func (q *repairQueue) promote(ino uint64, stripe uint32) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	it, ok := q.byKey[stripeKey{ino, stripe}]
	if !ok {
		return false
	}
	q.promoSeq++
	it.prio = q.promoSeq
	heap.Fix(&q.items, it.pos)
	q.promoted++
	return true
}

func (q *repairQueue) pending() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

func (q *repairQueue) promotions() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.promoted
}

// RepairOptions parameterize the deployment-agnostic repair engines.
// Cluster.Recover and Cluster.Drain fill them from the in-process
// cluster; a real deployment (see the TCP harness tests) supplies its
// own MDS handle, RPC caller, and drain hook.
type RepairOptions struct {
	K, M    int
	Workers int // <= 0 selects DefaultRecoveryWorkers
	// Down snapshots the failed node set; fetches skip these holders and
	// epoch broadcasts omit them.
	Down map[wire.NodeID]bool
	// Resources, when non-nil, feed the virtual-time makespan model
	// (DrainTime/VirtualTime/Bandwidth). A real deployment leaves it nil
	// and gets wall-free aggregate accounting only.
	Resources []*sim.Resource
	// Flush drains strategy logs cluster-wide — the §2.3.2 consistency
	// requirement — before stripes move and after replica replay. nil
	// skips (the caller has already quiesced the logs).
	Flush func(ctx context.Context) error
	// NoPromote disables degraded-read promotion, turning the queue into
	// a strict FIFO — the baseline the repair benchmark compares against.
	NoPromote bool
}

// callCost issues one engine RPC and returns the reply's priced cost,
// releasing the reply; a transport error or an error reply fails it.
func callCost(ctx context.Context, caller transport.RPC, node wire.NodeID, msg *wire.Msg) (time.Duration, error) {
	resp, err := caller.Call(ctx, node, msg)
	if err != nil {
		return 0, err
	}
	defer resp.Release()
	return resp.Cost, resp.Error()
}

// broadcastEpoch sends the wire.KEpochUpdate msg to every member of the
// stripe's new placement msg.Loc except the skipped and down nodes.
// Best effort: a member that misses it keeps accepting the old epoch,
// which is only a liveness hint — the MDS remains the placement
// authority. The geometry in msg completes each member's placement
// table, so its strategy routes future deltas to the new holder.
func broadcastEpoch(ctx context.Context, caller transport.RPC, msg wire.Msg, down map[wire.NodeID]bool, skip ...wire.NodeID) {
	for _, node := range msg.Loc.Nodes {
		if down[node] || slices.Contains(skip, node) {
			continue
		}
		m := msg
		if resp, err := caller.Call(ctx, node, &m); err == nil {
			resp.Release()
		}
	}
}

// maintenanceClasses are the traffic classes whose busy time bounds a
// repair/drain makespan: the engines' own tagged traffic plus untagged
// work (device charges, log drains, control). Foreground classes are
// deliberately excluded — concurrent reader/writer traffic on shared
// resources must not inflate the modeled rebuild window, which is what
// lets the repair benchmark report a clean repair bandwidth under load.
var maintenanceClasses = []sim.Class{sim.ClassRebuild, sim.ClassDrain, sim.ClassScrub, sim.ClassOther}

// repairTiming is the timing a repair run reports; RecoveryResult and
// DrainResult embed it.
type repairTiming struct {
	Workers int // stripe parallelism used
	// Promoted counts degraded-read hints that reordered the repair
	// queue (a hint for a stripe already handled or in flight is not
	// counted).
	Promoted  int
	DrainTime time.Duration // the pre-run log drain (virtual time)
	// StripeTime sums the per-stripe costs — the cost a single
	// sequential walker would experience.
	StripeTime time.Duration
	// VirtualTime is the modeled makespan: the pre-run log drain plus
	// the repair window, where Workers stripes proceed in parallel but
	// the window can never beat the busiest resource (operational-law
	// bound, as in sim.Throughput).
	VirtualTime time.Duration
	Bandwidth   float64 // bytes/second over VirtualTime
}

// repairRun is the run recovery, resilver and drain share around their
// per-stripe work: the scheduler baselines, the pre-run log drain, the
// worker pool over a prioritized queue, and the modeled makespan.
type repairRun struct {
	mds          *MDS
	o            RepairOptions
	timing       repairTiming
	throttleBase time.Duration
	spentBase    int64
	flushed      []time.Duration // maintenance busy time once the pre-run flush is done
}

// startRepair defaults o.Workers, snapshots the scheduler's throttle
// and spent-byte baselines, and runs o.Flush — the §2.3.2 drain — whose
// cost becomes the run's DrainTime.
func startRepair(ctx context.Context, mds *MDS, o RepairOptions) (*repairRun, error) {
	if o.Workers <= 0 {
		o.Workers = DefaultRecoveryWorkers
	}
	sched := mds.Scheduler()
	run := &repairRun{mds: mds, o: o, throttleBase: sched.Throttled(), spentBase: sched.TotalSpentBytes()}
	start := sim.SnapshotBusyClasses(o.Resources, maintenanceClasses...)
	if o.Flush != nil {
		if err := o.Flush(ctx); err != nil {
			return nil, err
		}
	}
	run.flushed = sim.SnapshotBusyClasses(o.Resources, maintenanceClasses...)
	run.timing.DrainTime = sim.MaxBusyDeltaClasses(o.Resources, start, maintenanceClasses...)
	return run, nil
}

// work seeds the repair queue with refs and drains it with
// RepairOptions.Workers concurrent workers (clamped to the queue
// length), registering it with the cluster's RepairScheduler for hint
// promotion (unless NoPromote) and bandwidth admission. stripe is called
// once per popped stripe with its seed slot and execution order and
// returns the priced bytes the stripe moved, which are charged against
// the rebuild budget; the first error aborts (remaining items are
// discarded, not executed). Cancellation is honored between stripes —
// the scheduler's admission gate returns ctx.Err() — so a cancelled
// repair or drain stops cleanly at a stripe boundary (completed stripes
// stay rebound; pending ones keep their old placement).
func (run *repairRun) work(ctx context.Context, refs []StripeRef, stripe func(ref StripeRef, seed, order int) (int64, error)) error {
	if run.o.Workers > len(refs) && len(refs) > 0 {
		run.o.Workers = len(refs)
	}
	run.timing.Workers = run.o.Workers
	q := newRepairQueue(refs)
	q.noPromote = run.o.NoPromote
	sched := run.mds.Scheduler()
	sched.register(q)
	defer sched.unregister(q)
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		errMu.Lock()
		// First error wins, except that a stranded cutover must not be
		// shadowed by a concurrent worker's cancellation: the caller
		// classifies the run's fate (resumable vs hard abort) from the
		// reported error, and a stranded stripe makes it a hard abort
		// no matter who failed first.
		if firstErr == nil ||
			(errors.Is(err, ErrStrandedCutover) && !errors.Is(firstErr, ErrStrandedCutover)) {
			firstErr = err
		}
		errMu.Unlock()
	}
	for w := 0; w < run.o.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				errMu.Lock()
				failed := firstErr != nil
				errMu.Unlock()
				if failed {
					// Drain the queue without doing (or admitting) work.
					if _, _, _, ok := q.pop(); !ok {
						return
					}
					continue
				}
				// Fast path: once the queue is empty it stays empty
				// (promotions only reorder), so don't run a possibly
				// throttled admission for a stripe that cannot exist.
				if q.pending() == 0 {
					return
				}
				// Admission precedes the pop so a promotion arriving
				// while this worker is throttled can still reorder the
				// stripe it is about to take.
				if err := sched.admit(ctx, q); err != nil {
					fail(err)
					continue
				}
				ref, seed, order, ok := q.pop()
				if !ok {
					return
				}
				bytes, err := stripe(ref, seed, order)
				sched.charge(bytes)
				if err != nil {
					fail(err)
				}
			}
		}()
	}
	wg.Wait()
	run.timing.Promoted = q.promotions()
	return firstErr
}

// finish returns the run's timing for stripeTime summed stripe cost and
// bytes moved. The makespan is the drain plus the pipelined window:
// the summed cost divided by the worker count, plus whatever virtual
// idle the bandwidth cap injected (throttle), but never less than the
// additional maintenance-class busy time of the bottleneck resource,
// which parallelism cannot compress.
func (run *repairRun) finish(stripeTime time.Duration, bytes int64) repairTiming {
	t := run.timing
	sched := run.mds.Scheduler()
	t.StripeTime = stripeTime
	window := stripeTime/time.Duration(t.Workers) + sched.Throttled() - run.throttleBase
	if b := sim.MaxBusyDeltaClasses(run.o.Resources, run.flushed, maintenanceClasses...); b > window {
		window = b
	}
	t.VirtualTime = t.DrainTime + window
	// A capped run can never report bandwidth above its cap: the budget
	// bytes this run consumed floor the modeled makespan regardless of
	// worker interleaving.
	if floor := t.DrainTime + sched.capFloor(sched.TotalSpentBytes()-run.spentBase); t.VirtualTime < floor {
		t.VirtualTime = floor
	}
	if t.VirtualTime > 0 {
		t.Bandwidth = float64(bytes) / t.VirtualTime.Seconds()
	}
	return t
}

// RepairNode rebuilds a failed node's blocks onto the replacement OSD
// using the MDS and RPC caller of any deployment — the engine
// Cluster.Recover wraps for the in-process cluster and the TCP harness
// drives over real sockets. The replacement must be reachable in
// process (its store is written directly, it learns epochs first, and
// its strategy replays what peers hold of the lost blocks' pending
// updates over its own RPC); everything else — shard fetches, epoch
// broadcasts — travels through caller. See Cluster.Recover for the
// full semantics.
func RepairNode(ctx context.Context, mds *MDS, caller transport.RPC, code *erasure.Code, o RepairOptions, failed wire.NodeID, repl *OSD) (*RecoveryResult, error) {
	run, err := startRepair(ctx, mds, o)
	if err != nil {
		return nil, fmt.Errorf("ecfs: pre-recovery drain: %w", err)
	}
	if repl.id != failed {
		// Permanent replacement under a fresh id: the victim must not
		// receive new placements while its stripes are rebound.
		mds.RemoveNode(failed)
	}
	return run.rebuild(ctx, caller, code, failed, repl, mds.StripesOnSorted(failed))
}

// rebuild is RepairNode's rebuild-and-aggregate step, which Resilver
// shares: it rebuilds refs onto repl (rebinding them when repl carries
// a fresh id), drains the parity deltas replica replay appended, and
// returns a *DataLossError counting every unrebuildable stripe
// alongside the result.
func (run *repairRun) rebuild(ctx context.Context, caller transport.RPC, code *erasure.Code, failed wire.NodeID, repl *OSD, refs []StripeRef) (*RecoveryResult, error) {
	o := run.o
	r := &recoverer{
		ctx:    ctx,
		mds:    run.mds,
		caller: caller,
		code:   code,
		k:      o.K,
		m:      o.M,
		failed: failed,
		repl:   repl,
		down:   o.Down,
		rebind: repl.id != failed,
	}
	res := &RecoveryResult{Stripes: make([]StripeRecovery, len(refs))}
	err := run.work(ctx, refs, func(ref StripeRef, seed, order int) (int64, error) {
		sr, err := r.rebuildStripe(ref)
		sr.Order = order
		res.Stripes[seed] = sr
		return int64(sr.Bytes), err
	})
	if err != nil {
		return nil, err
	}

	var (
		lossErr    *DataLossError
		stripeTime time.Duration
	)
	for _, sr := range res.Stripes {
		stripeTime += sr.Time()
		res.FetchErrors += sr.Unreachable
		if sr.Rebound {
			res.Rebound++
		}
		if sr.Lost {
			res.Lost++
			if lossErr == nil {
				lossErr = &DataLossError{
					Ino: sr.Ino, Stripe: sr.Stripe,
					Need:        o.K,
					Have:        sr.Obtained,
					Unreachable: sr.Unreachable,
					NotFound:    sr.NotFound,
				}
			}
			continue
		}
		if sr.Skipped {
			res.Skipped++
			continue
		}
		res.Blocks++
		res.Bytes += int64(sr.Bytes)
		res.ReplayedBytes += sr.Replayed
	}

	// Replica replay appends parity deltas to surviving parity logs;
	// drain them so parity is fully consistent before service resumes.
	if res.ReplayedBytes > 0 && o.Flush != nil {
		if err := o.Flush(ctx); err != nil {
			return nil, fmt.Errorf("ecfs: post-replay drain: %w", err)
		}
	}
	res.repairTiming = run.finish(stripeTime, res.Bytes)
	if lossErr != nil {
		lossErr.Stripes = res.Lost
		return res, lossErr
	}
	return res, nil
}

// StripeMove records the migration of one block during a drain.
type StripeMove struct {
	Ino    uint64
	Stripe uint32
	Idx    uint8
	To     wire.NodeID // destination chosen from the survivor pool
	Bytes  int
	// Skipped marks a placed-but-never-written slot: the placement is
	// rebound but there is no data to copy.
	Skipped bool
	// Refreshed marks a stripe whose post-fence refetch observed content
	// newer than the first copy — a client update raced the cutover and
	// was carried over.
	Refreshed bool
	// Done marks a fully completed migration (copied, cut over, fenced,
	// refetched). A cancelled drain's result contains only Done moves;
	// a stripe interrupted mid-migration is re-seeded by the resuming
	// drain.
	Done bool
	Cost time.Duration // synchronous fetch/store/fence RPC cost
}

// DrainResult summarizes a planned migration off a live node.
type DrainResult struct {
	Node wire.NodeID
	// Resumed marks a run that picked up a previously cancelled drain:
	// its queue was re-seeded from the stripes still on the node, and
	// pool membership was left exactly as the first run set it.
	Resumed   bool
	Moved     int // blocks copied onto survivor-pool nodes
	Skipped   int // placed-but-never-written slots rebound without data
	Refreshed int // racing updates caught by the post-fence refetch
	Rebound   int // placements rewritten under a bumped epoch (= Moved+Skipped)
	Bytes     int64
	repairTiming
	Moves []StripeMove // deterministic (Ino, Stripe, Idx) order
}

// MigrateNode moves every stripe off a *live* node onto the survivor
// pool under per-stripe epoch bumps — the engine behind Cluster.Drain
// and Cluster.Decommission. Unlike RepairNode it never decodes: each
// block is fetched from the draining node itself (read-through its
// pending logs), stored on a destination chosen from the pool, and only
// then cut over:
//
//  1. read-through fetch from the source (content including pending
//     data-log updates);
//  2. store on the destination — the new holder has the data before any
//     client can be routed to it;
//  3. rebind at the MDS under a bumped epoch;
//  4. fence: the source synchronously learns the new epoch and starts
//     rejecting stale client writes/updates/reads for the stripe
//     (wire.StatusStaleEpoch), pushing clients to re-resolve;
//  5. refetch from the source; if an update raced in between the first
//     copy and the fence, the fresher content is stored again;
//  6. broadcast the epoch to the remaining members and the destination
//     so asynchronous delta routing follows the move.
//
// Client operations therefore keep succeeding throughout: reads either
// reach the source pre-fence or re-resolve to the destination (falling
// back to a degraded decode only in the copy window, which also
// promotes the stripe); updates rejected by the fence re-resolve and
// land on the destination, whose base block is already present.
//
// Drains are resumable. A run that ends on a cancelled context returns
// the partial DrainResult (completed moves only) *alongside* ctx's
// error, keeps the node marked draining at the MDS, and leaves it out
// of the placement pool — no evicted-then-restored flap. A second
// MigrateNode (or Cluster.Drain) on the same node re-seeds its
// queue from the stripes still placed there, so nothing already cut
// over migrates twice; a stripe interrupted mid-migration before its
// rebind is simply migrated again (the copy is idempotent), while one
// past its rebind finishes its fence and refetch under a detached
// context before the cancellation is honored — cancellation never
// leaves a stripe rebound but unfenced, where the resume could not
// find it. If those detached steps themselves fail (a node fault, or
// the drainStripeBudget backstop expiring against a hung source), the
// drain hard-aborts with ErrStrandedCutover naming the affected block,
// returned alongside the partial result — never as a resumable cancel,
// since no resume can revisit a stripe already off the node. A second
// MigrateNode on a node whose drain is still *running* is rejected
// (see MDS.BeginDrain); only an interrupted drain resumes. Only a
// non-cancellation failure aborts the drain outright, restoring pool
// membership (the node is still live, serving, and hosting its
// unmigrated stripes); an operator who cancels and then changes course
// calls Cluster.AbortDrain for the same effect.
func MigrateNode(ctx context.Context, mds *MDS, caller transport.RPC, o RepairOptions, node wire.NodeID) (*DrainResult, error) {
	if o.Down[node] {
		return nil, fmt.Errorf("ecfs: drain: node %d is down (use Recover for failed nodes)", node)
	}
	live := 0
	for _, id := range mds.Nodes() {
		if id != node && !o.Down[id] {
			live++
		}
	}
	if live < o.K+o.M {
		return nil, fmt.Errorf("ecfs: drain node %d: %d live survivors < K+M = %d", node, live, o.K+o.M)
	}

	// Mark the node draining and evict it from the placement pool — or,
	// when resuming an interrupted drain, observe that both already
	// hold. This runs before any shared state moves (budget rebase,
	// cluster flush): a concurrent drain rejected here must leave the
	// running run's accounting and logs untouched. The mark's lifetime
	// encodes the drain's outcome: cleared in place on completion,
	// cleared with a pool restore on a hard failure, and downgraded to
	// interrupted on cancellation so the resume finds the node exactly
	// where the cancelled run left it.
	inPool := slices.Contains(mds.Nodes(), node)
	resumed, err := mds.BeginDrain(node)
	if err != nil {
		return nil, err
	}
	completed := false
	var runErr error
	defer func() {
		switch {
		case completed:
			mds.FinishDrain(node)
		case drainResumable(ctx, runErr):
			// Cancelled: stay out of the pool, downgrade the running
			// mark to interrupted so a later Drain resumes it while
			// a concurrent one is still rejected.
			mds.InterruptDrain(node)
		case inPool || resumed:
			mds.failDrain(node)
		default:
			// Never pool-evicted by a drain: just clear the mark.
			mds.FinishDrain(node)
		}
	}()
	if slices.Contains(mds.Nodes(), node) {
		runErr = fmt.Errorf("ecfs: drain node %d: placement pool cannot shrink below K+M", node)
		return nil, runErr
	}

	run, err := startRepair(ctx, mds, o)
	if err != nil {
		runErr = fmt.Errorf("ecfs: pre-drain flush: %w", err)
		return nil, runErr
	}
	refs := mds.StripesOnSorted(node)
	mg := &migrator{
		ctx: ctx,
		mds: mds, caller: caller, node: node, k: o.K, m: o.M,
		down: o.Down, deadList: encodeDeadList(slices.Collect(maps.Keys(o.Down))),
	}
	res := &DrainResult{Node: node, Resumed: resumed, Moves: make([]StripeMove, len(refs))}
	err = run.work(ctx, refs, func(ref StripeRef, seed, _ int) (int64, error) {
		mv, err := mg.migrateStripe(ref)
		res.Moves[seed] = mv
		return int64(mv.Bytes), err
	})
	if err != nil {
		runErr = err
		if !drainResumable(ctx, err) && !errors.Is(err, ErrStrandedCutover) {
			return nil, err
		}
		// Cancelled at a stripe boundary, or hard-aborted on a stranded
		// cutover: the completed moves stay cut over, so report them
		// alongside the error — the operator sees the progress a resume
		// picks up from, or the moves next to the stranded stripe.
		finishDrainResult(res, run)
		return res, err
	}

	if rest := mds.StripesOn(node); len(rest) != 0 {
		runErr = fmt.Errorf("ecfs: drain node %d: %d stripes still placed after migration", node, len(rest))
		return nil, runErr
	}
	completed = true
	finishDrainResult(res, run)
	return res, nil
}

// finishDrainResult compacts a drain's move list to the completed
// migrations and derives the aggregate counters and the run's timing
// from them.
func finishDrainResult(res *DrainResult, run *repairRun) {
	var stripeTime time.Duration
	done := res.Moves[:0]
	for _, mv := range res.Moves {
		if !mv.Done {
			continue
		}
		done = append(done, mv)
		stripeTime += mv.Cost
		res.Rebound++
		if mv.Skipped {
			res.Skipped++
			continue
		}
		res.Moved++
		res.Bytes += int64(mv.Bytes)
		if mv.Refreshed {
			res.Refreshed++
		}
	}
	res.Moves = done
	res.repairTiming = run.finish(stripeTime, res.Bytes)
}

// drainResumable reports whether a drain that failed with err should
// keep its draining state for a later resume (the operator's Ctrl-C —
// the run context's cancellation or deadline) rather than abort and
// restore pool membership. A stranded cutover is never resumable even
// when the operator cancelled at the same time — the stripe is off the
// node, so a resume could not revisit it — and the run ctx must itself
// have ended: a context error surfacing from anywhere else (e.g. the
// detached region's backstop expiring against a hung node) is a hard
// failure, not an operator cancel.
func drainResumable(ctx context.Context, err error) bool {
	if errors.Is(err, ErrStrandedCutover) {
		return false
	}
	if ctx.Err() == nil {
		return false
	}
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// ErrStrandedCutover marks a drain failure inside a stripe's detached
// post-rebind window: the stripe is already rebound at the MDS — off
// the source's StripesOn set, so no resume will ever revisit it — but
// its fence/refetch did not complete. It is always a hard failure
// (drainResumable rejects it regardless of the run context's state,
// and repairRun.work reports it in preference to a concurrent
// cancellation), because resuming cannot repair it. The wrapped error
// names the affected block; the partial DrainResult is returned
// alongside so the operator sees the moves that did complete. Until
// stale clients holding the old placement re-resolve, writes they land
// on the source are not carried to the destination — verify with
// Cluster.Flush + Scrub before trusting the stripe.
var ErrStrandedCutover = errors.New("ecfs: drain: stripe cutover incomplete (rebound but not fenced/refetched)")

// drainStripeBudget is the liveness backstop on a stripe's detached
// post-rebind window: the fence/broadcast/log-drain/refetch run under
// context.WithoutCancel (a cancel must not strand the stripe
// rebound-but-unfenced), so without a deadline of their own a hung
// node would wedge the drain worker forever — uncancellable, and with
// BeginDrain rejecting every later attempt. Generous on purpose, like
// the write path's stripeWriteBudget: it bounds a pathology, it does
// not pace healthy moves. An expiry is a hard failure, not a
// resumable cancel (see drainResumable).
const drainStripeBudget = 2 * time.Minute

// migrator is the per-drain engine state shared by the worker pool.
type migrator struct {
	ctx      context.Context // drain-run context; checked at every engine RPC
	mds      *MDS
	caller   transport.RPC
	node     wire.NodeID
	k, m     int
	down     map[wire.NodeID]bool
	deadList []byte // encoded down set for per-stripe source log drains
}

func (mg *migrator) migrateStripe(ref StripeRef) (StripeMove, error) {
	mv := StripeMove{Ino: ref.Ino, Stripe: ref.Stripe, Idx: ref.Idx}
	b := wire.BlockID{Ino: ref.Ino, Stripe: ref.Stripe, Idx: ref.Idx}
	resp, err := mg.caller.Call(mg.ctx, mg.node, &wire.Msg{Kind: wire.KBlockFetch, Block: b, Flag: wire.FetchReadThrough, Class: sim.ClassDrain})
	if err != nil {
		return mv, fmt.Errorf("ecfs: drain fetch %v from %d: %w", b, mg.node, err)
	}
	// data aliases the pooled reply until the cutover's refetch has
	// compared against it.
	defer resp.Release()
	var data []byte
	switch {
	case resp.OK():
		data = resp.Data
		mv.Cost += resp.Cost
	case resp.IsNotFound():
		mv.Skipped = true // placed but never written: rebind only
	default:
		return mv, fmt.Errorf("ecfs: drain fetch %v from %d: %w", b, mg.node, resp.Error())
	}

	dest, err := mg.mds.PickRebindTarget(ref.Ino, ref.Stripe, ref.Loc)
	if err != nil {
		return mv, err
	}
	mv.To = dest
	if data != nil {
		cost, err := callCost(mg.ctx, mg.caller, dest, &wire.Msg{Kind: wire.KBlockStore, Block: b, Data: data, Class: sim.ClassDrain})
		if err != nil {
			return mv, fmt.Errorf("ecfs: drain store %v on %d: %w", b, dest, err)
		}
		mv.Cost += cost
		mv.Bytes = len(data)
	}

	nl, err := mg.mds.Rebind(ref.Ino, ref.Stripe, mg.node, dest)
	if err != nil {
		return mv, fmt.Errorf("ecfs: drain rebind %d/%d: %w", ref.Ino, ref.Stripe, err)
	}

	// The rebind is the stripe's point of no return: the MDS now routes
	// clients to the destination and the resume path re-seeds from
	// StripesOn, which no longer lists this stripe. A cancellation
	// landing between here and Done would therefore strand it rebound
	// but unfenced — the mandatory fence/refetch would never run and an
	// acknowledged in-window write could be silently discarded. Detach
	// from the drain context so the remaining steps run to completion,
	// re-bounded by the drainStripeBudget backstop (a hung node must
	// not wedge the worker forever); cancellation is honored at the
	// next stripe boundary instead (the scheduler's admission gate in
	// repairRun.work). A failure in here — backstop expiry included —
	// is marked ErrStrandedCutover: it can never masquerade as a
	// resumable cancel, because no resume can revisit a stripe that is
	// already off the node.
	detached, cancel := context.WithTimeout(context.WithoutCancel(mg.ctx), drainStripeBudget)
	defer cancel()
	if err := mg.finishCutover(detached, &mv, ref, b, nl, dest, data); err != nil {
		return mv, fmt.Errorf("%w: %w", ErrStrandedCutover, err)
	}
	mv.Done = true
	return mv, nil
}

// finishCutover runs the post-rebind half of a stripe migration: the
// fence at the source, the epoch broadcast to the members, the
// parity-log drain, and the final guarded refetch/re-store. It runs
// under the detached per-stripe context (see migrateStripe); any error
// it returns means the stripe is rebound at the MDS but its cutover
// did not complete, which migrateStripe wraps as ErrStrandedCutover.
func (mg *migrator) finishCutover(ctx context.Context, mv *StripeMove, ref StripeRef, b wire.BlockID, nl wire.StripeLoc, dest wire.NodeID, data []byte) error {
	// Fence: unlike the recovery broadcast, the source notification must
	// succeed — it is what stops stale clients from mutating the moved
	// block on the old holder.
	epoch := wire.Msg{Kind: wire.KEpochUpdate, Block: b, Loc: nl, K: uint8(mg.k), M: uint8(mg.m), Class: sim.ClassDrain}
	fence := epoch
	cost, err := callCost(ctx, mg.caller, mg.node, &fence)
	if err != nil {
		return fmt.Errorf("ecfs: drain fence %v at %d: %w", b, mg.node, err)
	}
	mv.Cost += cost

	// Broadcast to the remaining members and the new holder *before* the
	// refetch, exactly like recovery's rebind but at this point in the
	// sequence on purpose: the broadcast updates the members' placement
	// tables, so asynchronous delta traffic (parity-log appends from
	// data holders) re-routes to the destination before the final copy
	// is taken.
	broadcastEpoch(ctx, mg.caller, epoch, mg.down, mg.node)

	// A parity block's pending state lives in the source's parity log as
	// XOR deltas, which a read-through fetch cannot merge (only data-log
	// overlays are content). With the members now routing new deltas to
	// the destination, force the source to recycle its logs so the base
	// block below is current before the final copy.
	if int(ref.Idx) >= mg.k {
		if err := mg.drainSourceLogs(ctx, mv); err != nil {
			return err
		}
	}

	// Refetch behind the fence: any write acknowledged by the source
	// after the first copy is now final there; carry it over. This runs
	// even when the first fetch found nothing — a placed-but-unwritten
	// stripe can receive its first full-block write inside the copy
	// window — and a refetch failure is an error, not a shrug: skipping
	// it would silently discard an acknowledged write. The re-store is
	// guarded (StoreUnlessOverwritten): it must never clobber a full
	// write a client has already landed on the destination under the
	// new epoch.
	r2, err := mg.caller.Call(ctx, mg.node, &wire.Msg{Kind: wire.KBlockFetch, Block: b, Flag: wire.FetchReadThrough, Class: sim.ClassDrain})
	if err != nil {
		return fmt.Errorf("ecfs: drain refetch %v from %d: %w", b, mg.node, err)
	}
	defer r2.Release()
	switch {
	case r2.OK():
		mv.Cost += r2.Cost
		if data == nil || !bytes.Equal(r2.Data, data) {
			cost, err := callCost(ctx, mg.caller, dest, &wire.Msg{
				Kind: wire.KBlockStore, Block: b, Data: r2.Data,
				Flag: wire.StoreUnlessOverwritten, Loc: nl, Class: sim.ClassDrain,
			})
			if err != nil {
				return fmt.Errorf("ecfs: drain refresh %v on %d: %w", b, dest, err)
			}
			mv.Refreshed = true
			mv.Skipped = false // content appeared inside the window
			mv.Bytes = len(r2.Data)
			mv.Cost += cost
		}
	case r2.IsNotFound():
		// Still never written: nothing to carry.
	default:
		return fmt.Errorf("ecfs: drain refetch %v from %d: %w", b, mg.node, r2.Error())
	}
	return nil
}

// drainSourceLogs forces the draining node to recycle its strategy logs
// (all phases), so pending parity-log deltas are folded into its base
// blocks before a parity block's final copy is taken. It runs post-
// rebind, so callers pass the detached (uncancellable) stripe context.
func (mg *migrator) drainSourceLogs(ctx context.Context, mv *StripeMove) error {
	for phase := 1; phase <= update.DrainPhases; phase++ {
		cost, err := callCost(ctx, mg.caller, mg.node, &wire.Msg{Kind: wire.KDrainLogs, Flag: uint8(phase), Data: mg.deadList, Class: sim.ClassDrain})
		if err != nil {
			return fmt.Errorf("ecfs: drain source logs at %d: %w", mg.node, err)
		}
		mv.Cost += cost
	}
	return nil
}

// Drain migrates every stripe off a live node onto the survivor pool
// under per-stripe epoch bumps, with zero downtime: the node keeps
// serving throughout, clients re-resolve stripe by stripe, and no data
// is decoded — blocks are copied straight from the draining node. The
// node is evicted from the placement pool but stays registered; follow
// with RemoveOSD (or use Decommission) to retire it.
//
// Options.RecoveryWorkers stripes migrate in parallel.
//
// A drain cancelled via ctx is resumable: call Drain again on the same
// node and it completes from the stripes still placed there, with no
// stripe migrated twice and no pool-membership flap in between (see
// MigrateNode). AbortDrain abandons it instead.
func (c *Cluster) Drain(ctx context.Context, node wire.NodeID) (*DrainResult, error) {
	if c.OSD(node) == nil {
		return nil, fmt.Errorf("ecfs: drain: unknown node %d", node)
	}
	o := c.repairOptions(false)
	o.Down = c.deadSnapshot()
	return MigrateNode(ctx, c.MDS, c.Tr.Caller(wire.MDSNode), o, node)
}

// AbortDrain abandons a cancelled (interrupted) drain instead of
// resuming it: the node's draining mark is cleared and it is
// re-admitted to the placement pool, still hosting the stripes the
// cancelled run did not migrate. Stripes already cut over stay on
// their destinations. It reports whether an interrupted drain was
// aborted; a drain still actively running is left untouched (false) —
// cancel its context first, then abort.
func (c *Cluster) AbortDrain(node wire.NodeID) bool {
	return c.MDS.AbortDrain(node)
}

// Decommission drains a live node and then retires it: after every
// stripe has been migrated (Drain), the node is deregistered from the
// transport, closed, removed from the OSD list, and forgotten by the
// MDS — the zero-downtime path for taking hardware out of service.
func (c *Cluster) Decommission(ctx context.Context, node wire.NodeID) (*DrainResult, error) {
	res, err := c.Drain(ctx, node)
	if err != nil {
		return res, err
	}
	c.RemoveOSD(node)
	return res, nil
}

// RemoveOSD retires a node that no longer hosts placements (post-Drain):
// the transport handler is deregistered, the OSD closed and dropped from
// the list, and its liveness and reverse-index state forgotten at the
// MDS. Clients still caching the node's placements get transport errors
// and re-resolve.
func (c *Cluster) RemoveOSD(node wire.NodeID) {
	c.Tr.Deregister(node)
	out := c.OSDs[:0]
	for _, o := range c.OSDs {
		if o.id == node {
			o.Close()
			continue
		}
		out = append(out, o)
	}
	c.OSDs = out
	c.MDS.Forget(node)
	c.failMu.Lock()
	delete(c.failed, node)
	c.failMu.Unlock()
}
