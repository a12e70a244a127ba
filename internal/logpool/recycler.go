package logpool

import (
	"hash/fnv"
	"sync"
	"time"

	"repro/internal/wire"
)

// RecycleFunc merges the (already locality-merged) extents of one block
// into its backing store — reading old data, computing deltas,
// overwriting blocks, forwarding to downstream logs, whatever the log
// layer requires. It returns the modeled device/network cost of the
// work. Calls for the same block are serialized and arrive in unit FIFO
// order; calls for different blocks run concurrently.
type RecycleFunc func(be BlockExtents, sealV time.Duration) time.Duration

// Recycler drives real-time recycling of a pool with the paper's
// recycling thread pool (§3.2.1): log entries are assigned to persistent
// workers per block, so per-block ordering holds across units while
// distinct blocks — including blocks of *different* recyclable units —
// recycle concurrently. That cross-unit concurrency is why a deeper unit
// quota sustains a higher recycle rate (Fig. 6b).
type Recycler struct {
	pool    *Pool
	fn      RecycleFunc
	workers []*recycleWorker
	wg      sync.WaitGroup
}

type recycleWorker struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []workItem
	closed bool
}

type workItem struct {
	be      BlockExtents
	sealV   time.Duration
	tracker *unitTracker
	worker  int
}

// unitTracker collects per-unit recycle accounting across workers and
// finishes the unit when its last block completes.
type unitTracker struct {
	u         *Unit
	pool      *Pool
	mu        sync.Mutex
	remaining int
	cost      time.Duration
	perWorker map[int]time.Duration
	extents   int64
	bytes     int64
}

func (t *unitTracker) add(worker int, cost time.Duration) {
	t.mu.Lock()
	t.cost += cost
	t.perWorker[worker] += cost
	t.remaining--
	done := t.remaining == 0
	var wall time.Duration
	if done {
		for _, w := range t.perWorker {
			if w > wall {
				wall = w
			}
		}
	}
	total := t.cost
	t.mu.Unlock()
	if done {
		t.pool.FinishRecycle(t.u, total, wall, t.u.Entries(), t.extents, t.bytes)
	}
}

// StartRecycler begins recycling pool with the given per-block function
// and worker count. Stop with pool.Close() followed by Wait().
func StartRecycler(pool *Pool, workers int, fn RecycleFunc) *Recycler {
	if workers < 1 {
		workers = 1
	}
	r := &Recycler{pool: pool, fn: fn}
	for i := 0; i < workers; i++ {
		w := &recycleWorker{}
		w.cond = sync.NewCond(&w.mu)
		r.workers = append(r.workers, w)
		r.wg.Add(1)
		go r.workerLoop(w)
	}
	r.wg.Add(1)
	go r.dispatchLoop()
	return r
}

// UnitFunc recycles one whole sealed unit, given its blocks, for a
// layer whose merge spans blocks (per-stripe merging). It returns the
// modeled cost of the work and its modeled wall time, which may be less
// than the cost when parts of the unit recycle in parallel.
type UnitFunc func(blocks []BlockExtents) (cost, wall time.Duration)

// StartUnitRecycler recycles pool one whole unit at a time, oldest
// first, on a single goroutine. Stop with pool.Close() followed by
// Wait().
func StartUnitRecycler(pool *Pool, fn UnitFunc) *Recycler {
	r := &Recycler{pool: pool}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for {
			u := pool.TakeRecyclable(true)
			if u == nil {
				return
			}
			blocks := u.Blocks()
			extents, bytes := countExtents(blocks)
			cost, wall := fn(blocks)
			pool.FinishRecycle(u, cost, wall, u.Entries(), extents, bytes)
		}
	}()
	return r
}

// Wait blocks until the recycler has exited (after pool.Close()).
func (r *Recycler) Wait() { r.wg.Wait() }

func (r *Recycler) dispatchLoop() {
	defer r.wg.Done()
	defer func() {
		for _, w := range r.workers {
			w.mu.Lock()
			w.closed = true
			w.cond.Broadcast()
			w.mu.Unlock()
		}
	}()
	for {
		u := r.pool.TakeRecyclable(true)
		if u == nil {
			return
		}
		r.dispatchUnit(u)
	}
}

func (r *Recycler) dispatchUnit(u *Unit) {
	blocks := u.Blocks()
	if len(blocks) == 0 {
		r.pool.FinishRecycle(u, 0, 0, u.Entries(), 0, 0)
		return
	}
	tracker := &unitTracker{
		u: u, pool: r.pool,
		remaining: len(blocks),
		perWorker: make(map[int]time.Duration),
	}
	tracker.extents, tracker.bytes = countExtents(blocks)
	sealV := u.SealV()
	for _, be := range blocks {
		wi := int(blockHash(be.Block)) % len(r.workers)
		w := r.workers[wi]
		w.mu.Lock()
		w.queue = append(w.queue, workItem{be: be, sealV: sealV, tracker: tracker, worker: wi})
		w.cond.Signal()
		w.mu.Unlock()
	}
}

// countExtents counts the extents and payload bytes of a unit's blocks.
func countExtents(blocks []BlockExtents) (extents, bytes int64) {
	for _, be := range blocks {
		extents += int64(len(be.Extents))
		for _, e := range be.Extents {
			bytes += int64(len(e.Data))
		}
	}
	return extents, bytes
}

func (r *Recycler) workerLoop(w *recycleWorker) {
	defer r.wg.Done()
	for {
		w.mu.Lock()
		for len(w.queue) == 0 && !w.closed {
			w.cond.Wait()
		}
		if len(w.queue) == 0 && w.closed {
			w.mu.Unlock()
			return
		}
		item := w.queue[0]
		w.queue = w.queue[1:]
		w.mu.Unlock()
		cost := r.fn(item.be, item.sealV)
		if per := r.pool.persist; per != nil {
			// The block's records are merged into downstream state; mark
			// them dead so a crash between here and the unit-level fold
			// replays as little as possible.
			per.FoldBlock(item.tracker.u.gen, item.be.Block)
		}
		item.tracker.add(item.worker, cost)
	}
}

func blockHash(b wire.BlockID) uint32 {
	h := fnv.New32a()
	var buf [13]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(b.Ino >> (8 * i))
	}
	for i := 0; i < 4; i++ {
		buf[8+i] = byte(b.Stripe >> (8 * i))
	}
	buf[12] = b.Idx
	h.Write(buf[:])
	return h.Sum32()
}

// PoolSet routes blocks to one of N pools by block hash, the paper's
// "4 log pools per SSD" configuration (§4.1).
type PoolSet struct {
	pools []*Pool
}

// NewPoolSet builds n pools from cfg (names suffixed with the index).
func NewPoolSet(n int, cfg Config) (*PoolSet, error) {
	if n < 1 {
		n = 1
	}
	ps := &PoolSet{}
	base := cfg.Name
	for i := 0; i < n; i++ {
		cfg.Name = base + poolSuffix(i)
		p, err := NewPool(cfg)
		if err != nil {
			return nil, err
		}
		ps.pools = append(ps.pools, p)
	}
	return ps, nil
}

func poolSuffix(i int) string { return string(rune('0' + i%10)) }

// Pick returns the pool responsible for a block.
func (ps *PoolSet) Pick(b wire.BlockID) *Pool {
	return ps.pools[blockHash(b)%uint32(len(ps.pools))]
}

// Pools returns all member pools.
func (ps *PoolSet) Pools() []*Pool { return ps.pools }

// Append routes to the owning pool.
func (ps *PoolSet) Append(block wire.BlockID, off uint32, data []byte, v time.Duration) time.Duration {
	return ps.Pick(block).Append(block, off, data, v)
}

// Drain drains every member pool.
func (ps *PoolSet) Drain(v time.Duration) {
	for _, p := range ps.pools {
		p.Drain(v)
	}
}

// Close closes every member pool.
func (ps *PoolSet) Close() {
	for _, p := range ps.pools {
		p.Close()
	}
}

// Stats sums the member pools' snapshots.
func (ps *PoolSet) Stats() Stats {
	var s Stats
	for _, p := range ps.pools {
		s = s.Add(p.Stats())
	}
	return s
}

// MemoryBytes sums member pools' footprints.
func (ps *PoolSet) MemoryBytes() int64 {
	var n int64
	for _, p := range ps.pools {
		n += p.MemoryBytes()
	}
	return n
}

// QuotaBytes sums member pools' configured memory ceilings.
func (ps *PoolSet) QuotaBytes() int64 {
	var n int64
	for _, p := range ps.pools {
		n += p.QuotaBytes()
	}
	return n
}

// WaitIdle waits for all member pools' sealed units to recycle.
func (ps *PoolSet) WaitIdle() {
	for _, p := range ps.pools {
		p.WaitIdle()
	}
}
