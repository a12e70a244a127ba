package logpool

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/wire"
)

// State is the lifecycle state of a log unit (paper Fig. 3).
type State int

const (
	// Empty units accept appends; exactly one Empty unit is active.
	Empty State = iota
	// Recyclable units are sealed and queued for recycling.
	Recyclable
	// Recycling units are being merged into blocks by recycle workers.
	Recycling
	// Recycled units have been merged; their index is retained as a
	// read cache until the unit is reused for new appends.
	Recycled
)

// String returns the state's name as the paper's Fig. 3 spells it.
func (s State) String() string {
	switch s {
	case Empty:
		return "EMPTY"
	case Recyclable:
		return "RECYCLABLE"
	case Recycling:
		return "RECYCLING"
	case Recycled:
		return "RECYCLED"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// entryHeader approximates the persisted per-record framing (block id,
// offset, length, checksum).
const entryHeader = 32

// Unit is one fixed-size log unit.
type Unit struct {
	id    int
	state State
	// gen is the unit's incarnation for durable persistence: unit
	// objects are reused after recycling (rotateLocked), so each reuse
	// gets a fresh generation and the persisted records of different
	// fillings never alias.
	gen uint64

	mu      sync.RWMutex
	blocks  map[wire.BlockID]*blockIndex
	raw     int64 // appended payload incl. headers (fill level)
	entries int64 // records appended (pre-merge)

	firstV, sealV time.Duration // virtual times for residence stats
	hasFirst      bool
	sealSeq       int // global seal order within the pool
}

// ID returns the unit's creation ordinal.
func (u *Unit) ID() int { return u.id }

// Entries returns the number of records appended to the unit (pre-merge).
func (u *Unit) Entries() int64 {
	u.mu.RLock()
	defer u.mu.RUnlock()
	return u.entries
}

// SealV returns the virtual time at which the unit was sealed.
func (u *Unit) SealV() time.Duration {
	u.mu.RLock()
	defer u.mu.RUnlock()
	return u.sealV
}

// Blocks returns the recycle work: per-block merged extents, blocks in a
// deterministic order, extents sorted by offset (or arrival order in
// NoMerge mode). The extents' Data aliases the unit's index: a sealed
// unit (what TakeRecyclable hands out) is immutable until it is reused
// after FinishRecycle, an active unit is not — its extents change in
// place under later appends.
func (u *Unit) Blocks() []BlockExtents {
	u.mu.RLock()
	defer u.mu.RUnlock()
	out := make([]BlockExtents, 0, len(u.blocks))
	for id, bi := range u.blocks {
		exts := make([]Extent, len(bi.extents))
		copy(exts, bi.extents)
		out = append(out, BlockExtents{Block: id, Extents: exts})
	}
	sort.Slice(out, func(i, j int) bool { return lessBlock(out[i].Block, out[j].Block) })
	return out
}

func lessBlock(a, b wire.BlockID) bool {
	if a.Ino != b.Ino {
		return a.Ino < b.Ino
	}
	if a.Stripe != b.Stripe {
		return a.Stripe < b.Stripe
	}
	return a.Idx < b.Idx
}

// Stats is a pool-level snapshot.
type Stats struct {
	AppendedEntries int64
	AppendedBytes   int64 // payload bytes appended (pre-merge)
	RecycledExtents int64 // extents handed to recycle after merging
	RecycledBytes   int64 // payload bytes after merging
	UnitsRecycled   int64
	UnitsAllocated  int // high-water mark of allocated units
	CacheHits       int64
	CacheMisses     int64
	// Residence statistics (virtual time), for Table 2.
	AppendCost   time.Duration // summed device cost of appends
	BufferTime   time.Duration // summed (seal - append) virtual residency
	RecycleCost  time.Duration // summed device cost charged by recyclers
	RecycleCount int64         // entries included in RecycleCost
	// Stall statistics: appends that found every unit busy. The modeled
	// stall duration is derived from the virtual recycle frontier — this
	// is what makes a too-shallow pool (Fig. 6b, maxUnits=2) visibly
	// slower in the deterministic timing model.
	Stalls    int64
	StallTime time.Duration
}

// Add returns the field-wise sum of s and o: the counters of two pools
// (or of one layer on two nodes) as one.
func (s Stats) Add(o Stats) Stats {
	s.AppendedEntries += o.AppendedEntries
	s.AppendedBytes += o.AppendedBytes
	s.RecycledExtents += o.RecycledExtents
	s.RecycledBytes += o.RecycledBytes
	s.UnitsRecycled += o.UnitsRecycled
	s.UnitsAllocated += o.UnitsAllocated
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.AppendCost += o.AppendCost
	s.BufferTime += o.BufferTime
	s.RecycleCost += o.RecycleCost
	s.RecycleCount += o.RecycleCount
	s.Stalls += o.Stalls
	s.StallTime += o.StallTime
	return s
}

// Config parameterizes a pool.
type Config struct {
	Name     string
	Mode     MergeMode
	UnitSize int64 // capacity of one unit (paper default 16 MiB)
	MinUnits int   // retained floor (paper: 2)
	MaxUnits int   // quota ceiling (paper default: 4, swept 2..20 in Fig. 6b)
	// Device receives the sequential persistence writes of appends. May
	// be nil (pure in-memory log, used in unit tests).
	Device *device.Device
	// Class is the traffic class append device charges account to
	// (foreground-write for front-end logs, other for internal layers).
	Class sim.Class
	// Persist optionally backs the pool with durable per-layer log
	// segments (the internal/store engine); resolved by pool name.
	Persist PersistProvider
}

func (c *Config) sanitize() error {
	if c.UnitSize <= 0 {
		return fmt.Errorf("logpool %q: non-positive unit size", c.Name)
	}
	if c.MaxUnits < 1 {
		return fmt.Errorf("logpool %q: need at least one unit", c.Name)
	}
	if c.MinUnits < 1 {
		c.MinUnits = 1
	}
	if c.MinUnits > c.MaxUnits {
		c.MinUnits = c.MaxUnits
	}
	return nil
}

// Pool is a FIFO queue of log units backing one log pool of one layer.
type Pool struct {
	cfg     Config
	persist Persist // resolved per-layer handle, nil without Config.Persist

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*Unit // FIFO: oldest first; active unit is the last
	active  *Unit
	nextID  int
	nextGen uint64
	stats   Stats
	closed  bool
	pending int // units in Recyclable/Recycling state
	// slots model the virtual recycle pipeline: up to MaxUnits-1 sealed
	// units recycle concurrently (the paper: "multiple log units marked
	// as RECYCLABLE can be recycled concurrently"), so completions are
	// computed against MaxUnits-1 round-robin virtual lanes.
	slots []time.Duration
	// sealSeq numbers sealed units; completions[i] records when seal #i
	// finished recycling (virtual time) and how long its recycle took.
	// An append filling seal #s could not have started before seal
	// #(s - MaxUnits) completed — the quota is the pipeline depth — so
	// the overlap is accounted as stall (the Fig. 6b effect). Clients
	// are closed-loop: a blocked append waits at most for the head unit
	// to free a slot, so the per-unit stall is capped at that unit's
	// recycle wall time.
	sealSeq     int
	completions map[int]completionRec
}

type completionRec struct {
	done time.Duration
	wall time.Duration
}

// NewPool creates a pool with one active empty unit.
func NewPool(cfg Config) (*Pool, error) {
	if err := cfg.sanitize(); err != nil {
		return nil, err
	}
	p := &Pool{cfg: cfg, completions: make(map[int]completionRec)}
	if cfg.Persist != nil {
		p.persist = cfg.Persist.Layer(cfg.Name)
	}
	lanes := cfg.MaxUnits - 1
	if lanes < 1 {
		lanes = 1
	}
	p.slots = make([]time.Duration, lanes)
	p.cond = sync.NewCond(&p.mu)
	p.active = p.newUnitLocked()
	p.queue = append(p.queue, p.active)
	return p, nil
}

// MustNewPool panics on configuration errors; for tests and literals.
func MustNewPool(cfg Config) *Pool {
	p, err := NewPool(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

func (p *Pool) newUnitLocked() *Unit {
	u := &Unit{id: p.nextID, gen: p.nextGen, state: Empty, blocks: make(map[wire.BlockID]*blockIndex)}
	p.nextID++
	p.nextGen++
	if n := p.allocatedLocked() + 1; n > p.stats.UnitsAllocated {
		p.stats.UnitsAllocated = n
	}
	return u
}

func (p *Pool) allocatedLocked() int { return len(p.queue) }

// Append logs one record and returns the modeled device cost of
// persisting it (a sequential append). It blocks when every unit is in
// use and the quota is reached, which is exactly the backpressure the
// paper's memory quota imposes (§3.2.1).
func (p *Pool) Append(block wire.BlockID, off uint32, data []byte, v time.Duration) time.Duration {
	if len(data) == 0 {
		return 0
	}
	var stall time.Duration
	p.mu.Lock()
	for p.active == nil && !p.closed {
		p.rotateLocked()
		if p.active == nil {
			p.cond.Wait()
		}
	}
	if p.closed {
		p.mu.Unlock()
		return 0
	}
	u := p.active
	u.mu.Lock() // acquire before releasing pool lock so seal order holds
	if !u.hasFirst {
		u.firstV, u.hasFirst = v, true
	}
	p.stats.AppendedEntries++
	p.stats.AppendedBytes += int64(len(data))
	u.raw += int64(len(data)) + entryHeader
	u.entries++
	full := u.raw >= p.cfg.UnitSize
	if full {
		u.state = Recyclable
		u.sealV = v
		u.sealSeq = p.sealSeq
		p.sealSeq++
		p.active = nil
		p.pending++
		// Quota-depth stall: this unit's appends could not begin until
		// the unit MaxUnits seals back had finished recycling, and wait
		// at most for that unit's recycle to free its slot.
		if prev := u.sealSeq - p.cfg.MaxUnits; prev >= 0 && u.hasFirst {
			if comp, ok := p.completions[prev]; ok && comp.done > u.firstV {
				st := comp.done - u.firstV
				if st > comp.wall {
					st = comp.wall
				}
				p.stats.Stalls++
				p.stats.StallTime += st
				stall += st
				delete(p.completions, prev)
			}
		}
	}
	p.mu.Unlock()

	bi := u.blocks[block]
	if bi == nil {
		bi = &blockIndex{mode: p.cfg.Mode}
		u.blocks[block] = bi
	}
	bi.insert(off, data, v)
	if p.persist != nil {
		// Log-before-ack, still under the unit lock so no fold for this
		// generation can be recorded before the entry itself lands.
		p.persist.AppendEntry(u.gen, block, off, int64(v), data)
	}
	u.mu.Unlock()

	var cost time.Duration
	if p.cfg.Device != nil {
		cost = p.cfg.Device.Write(p.cfg.Class, int64(len(data))+entryHeader, false, false)
	}
	p.mu.Lock()
	p.stats.AppendCost += cost
	if full {
		p.cond.Broadcast() // wake recyclers waiting in TakeRecyclable
	}
	p.mu.Unlock()
	return cost + stall
}

// rotateLocked installs a new active unit if capacity allows: an Empty
// unit if one exists, else the oldest Recycled unit (clearing its cached
// index), else a fresh allocation under the MaxUnits quota.
func (p *Pool) rotateLocked() {
	for _, u := range p.queue {
		if u.state == Empty && u != p.active {
			p.active = u
			p.moveToTailLocked(u)
			return
		}
	}
	for _, u := range p.queue {
		if u.state == Recycled {
			u.mu.Lock()
			u.blocks = make(map[wire.BlockID]*blockIndex)
			u.raw = 0
			u.entries = 0
			u.hasFirst = false
			u.state = Empty
			u.gen = p.nextGen // fresh incarnation for the reused object
			p.nextGen++
			u.mu.Unlock()
			p.active = u
			p.moveToTailLocked(u)
			return
		}
	}
	if len(p.queue) < p.cfg.MaxUnits {
		u := p.newUnitLocked()
		p.queue = append(p.queue, u)
		p.active = u
	}
}

func (p *Pool) moveToTailLocked(u *Unit) {
	for i, q := range p.queue {
		if q == u {
			p.queue = append(append(p.queue[:i], p.queue[i+1:]...), u)
			return
		}
	}
}

// SealActive force-seals a non-empty active unit so it becomes
// recyclable (used by Drain and by recovery preparation).
func (p *Pool) SealActive(v time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	u := p.active
	if u == nil {
		return
	}
	u.mu.Lock()
	nonEmpty := u.raw > 0
	if nonEmpty {
		u.state = Recyclable
		u.sealV = v
		u.sealSeq = p.sealSeq
		p.sealSeq++
		p.active = nil
		p.pending++
	}
	u.mu.Unlock()
	if nonEmpty {
		p.cond.Broadcast()
	}
}

// TakeRecyclable returns the oldest Recyclable unit, marking it
// Recycling. With wait=true it blocks until a unit is available or the
// pool is closed; with wait=false it returns nil immediately on none.
func (p *Pool) TakeRecyclable(wait bool) *Unit {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		for _, u := range p.queue {
			if u.state == Recyclable {
				u.state = Recycling
				return u
			}
		}
		if !wait || p.closed {
			return nil
		}
		p.cond.Wait()
	}
}

// FinishRecycle transitions a Recycling unit to Recycled, retaining its
// index as a read cache, and accounts residence statistics. recycleCost
// is the total modeled cost of the unit's recycle; wall is its modeled
// wall-clock duration (cost divided by recycle parallelism), which
// advances the virtual recycle frontier used for stall modeling.
func (p *Pool) FinishRecycle(u *Unit, recycleCost, wall time.Duration, entries, extents, bytes int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if u.state != Recycling {
		panic(fmt.Sprintf("logpool %q: FinishRecycle on unit in state %v", p.cfg.Name, u.state))
	}
	u.mu.Lock()
	u.state = Recycled
	if p.persist != nil {
		// Every record of this incarnation has been recycled: mark the
		// generation dead so a restart does not replay it (and the
		// compactor can reclaim the segment file).
		p.persist.FoldUnit(u.gen)
	}
	if u.hasFirst {
		p.stats.BufferTime += (u.sealV - u.firstV)
	}
	lane := u.sealSeq % len(p.slots)
	start := p.slots[lane]
	if u.sealV > start {
		start = u.sealV
	}
	done := start + wall
	p.slots[lane] = done
	p.completions[u.sealSeq] = completionRec{done: done, wall: wall}
	u.mu.Unlock()
	p.pending--
	p.stats.UnitsRecycled++
	p.stats.RecycledExtents += extents
	p.stats.RecycledBytes += bytes
	p.stats.RecycleCost += recycleCost
	p.stats.RecycleCount += entries
	// Shrink beyond the retained floor when idle (paper §3.2.2).
	p.shrinkLocked()
	p.cond.Broadcast()
}

// shrinkLocked releases surplus Recycled units above MinUnits.
func (p *Pool) shrinkLocked() {
	recycled := 0
	for _, u := range p.queue {
		if u.state == Recycled {
			recycled++
		}
	}
	for i := 0; i < len(p.queue) && len(p.queue) > p.cfg.MinUnits && recycled > 1; {
		if p.queue[i].state == Recycled {
			p.queue = append(p.queue[:i], p.queue[i+1:]...)
			recycled--
			continue
		}
		i++
	}
}

// Drain seals the active unit and waits until no unit remains
// recyclable or recycling. Recycle workers must be running.
func (p *Pool) Drain(v time.Duration) {
	p.SealActive(v)
	p.WaitIdle()
}

// WaitIdle waits until all *sealed* units have been recycled, without
// sealing the active unit — the steady state of real-time recycling.
func (p *Pool) WaitIdle() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.pending > 0 && !p.closed {
		p.cond.Wait()
	}
}

// Close unblocks all waiters; further appends are dropped.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Lookup serves a read of n bytes of block from off from the log
// working as a cache: it scans units newest-to-oldest for a full
// covering of [off, off+n). A covering unit is not necessarily current
// for every byte — a newer unit may hold a partial update inside the
// range — so the newer units' extents are overlaid, oldest to newest,
// before Lookup returns the hit. On a hit Lookup calls buf once for the
// n bytes to fill, and copies the hit into them under the unit lock
// (appends mutate an active unit's extents in place); on a miss it
// calls nothing, so a caller pays for a buffer only when it is filled.
// buf runs under the unit's read lock, so it must not block or call
// into the pool: it hands out a buffer, nothing more.
func (p *Pool) Lookup(block wire.BlockID, off uint32, n int, buf func() []byte) ([]byte, bool) {
	p.mu.Lock()
	units := make([]*Unit, len(p.queue))
	copy(units, p.queue)
	p.mu.Unlock()
	for i := len(units) - 1; i >= 0; i-- {
		u := units[i]
		var dst []byte
		hit := false
		u.mu.RLock()
		if bi := u.blocks[block]; bi != nil {
			var data []byte
			if data, hit = bi.lookup(off, uint32(n)); hit {
				dst = buf()
				copy(dst, data)
			}
		}
		u.mu.RUnlock()
		if !hit {
			continue
		}
		for _, nu := range units[i+1:] {
			nu.mu.RLock()
			if nbi := nu.blocks[block]; nbi != nil {
				nbi.overlay(off, dst)
			}
			nu.mu.RUnlock()
		}
		p.mu.Lock()
		p.stats.CacheHits++
		p.mu.Unlock()
		return dst, true
	}
	p.mu.Lock()
	p.stats.CacheMisses++
	p.mu.Unlock()
	return nil, false
}

// Overlay applies all *pending* (not yet recycled) log content for block
// onto dst, which starts at block offset off. Units are applied oldest
// to newest so later updates win. This gives the read path
// read-your-writes semantics over the base block content.
func (p *Pool) Overlay(block wire.BlockID, off uint32, dst []byte) {
	// u.state is guarded by p.mu, so the pending filter happens while
	// snapshotting the queue; a unit recycled between the snapshot and
	// the overlay applies content the base block now also holds, which
	// oldest-to-newest application keeps correct.
	p.mu.Lock()
	units := make([]*Unit, 0, len(p.queue))
	for _, u := range p.queue {
		if u.state != Recycled { // recycled content already on disk
			units = append(units, u)
		}
	}
	p.mu.Unlock()
	for _, u := range units {
		u.mu.RLock()
		if bi := u.blocks[block]; bi != nil {
			bi.overlay(off, dst)
		}
		u.mu.RUnlock()
	}
}

// Pending reports whether a pending (not yet recycled) unit may hold
// content for [off, off+n) of block — whether Overlay may change a read
// of that range. It answers at the index's 4 KiB page granularity, so
// a true may be a near miss; a false is exact.
func (p *Pool) Pending(block wire.BlockID, off uint32, n int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, u := range p.queue {
		if u.state == Recycled {
			continue
		}
		u.mu.RLock()
		bi := u.blocks[block]
		hit := bi != nil && bi.mayContain(off, off+uint32(n))
		u.mu.RUnlock()
		if hit {
			return true
		}
	}
	return false
}

// MemoryBytes returns the resident footprint: allocated units times unit
// size (buffers).
func (p *Pool) MemoryBytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return int64(len(p.queue)) * p.cfg.UnitSize
}

// QuotaBytes returns the configured ceiling (MaxUnits x UnitSize) — the
// memory budget Fig. 6b sweeps.
func (p *Pool) QuotaBytes() int64 {
	return int64(p.cfg.MaxUnits) * p.cfg.UnitSize
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// UnitStates returns the current unit states oldest-first (diagnostics).
func (p *Pool) UnitStates() []State {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]State, len(p.queue))
	for i, u := range p.queue {
		out[i] = u.state
	}
	return out
}
