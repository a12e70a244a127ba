package logpool

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/wire"
)

func blk(i int) wire.BlockID { return wire.BlockID{Ino: 1, Stripe: uint32(i), Idx: 0} }

func testCfg(unitSize int64, maxUnits int) Config {
	return Config{Name: "test", Mode: Overwrite, UnitSize: unitSize, MaxUnits: maxUnits}
}

func TestPoolConfigValidation(t *testing.T) {
	if _, err := NewPool(Config{UnitSize: 0, MaxUnits: 2}); err == nil {
		t.Fatal("zero unit size must fail")
	}
	if _, err := NewPool(Config{UnitSize: 10, MaxUnits: 0}); err == nil {
		t.Fatal("zero max units must fail")
	}
}

// lookup is Lookup into a fresh buffer of size bytes.
func lookup(p *Pool, b wire.BlockID, off, size uint32) ([]byte, bool) {
	return p.Lookup(b, off, int(size), func() []byte { return make([]byte, size) })
}

func TestAppendAndLookup(t *testing.T) {
	p := MustNewPool(testCfg(1<<20, 4))
	defer p.Close()
	p.Append(blk(1), 100, []byte("hello"), 0)
	d, ok := lookup(p, blk(1), 100, 5)
	if !ok || string(d) != "hello" {
		t.Fatalf("lookup = %q, %v", d, ok)
	}
	// A miss asks for no buffer.
	if _, ok := p.Lookup(blk(2), 100, 5, func() []byte { t.Fatal("a miss asked for a buffer"); return nil }); ok {
		t.Fatal("lookup of unlogged block must miss")
	}
	s := p.Stats()
	if s.AppendedEntries != 1 || s.AppendedBytes != 5 {
		t.Fatalf("stats wrong: %+v", s)
	}
	if s.CacheHits != 1 || s.CacheMisses != 1 {
		t.Fatalf("cache stats wrong: %+v", s)
	}
}

func TestUnitSealsWhenFull(t *testing.T) {
	p := MustNewPool(testCfg(100, 4))
	defer p.Close()
	p.Append(blk(1), 0, make([]byte, 80), 0) // 80+32 >= 100 -> seals
	states := p.UnitStates()
	if len(states) == 0 || states[0] != Recyclable {
		t.Fatalf("unit should be RECYCLABLE, states=%v", states)
	}
	u := p.TakeRecyclable(false)
	if u == nil {
		t.Fatal("expected a recyclable unit")
	}
	blocks := u.Blocks()
	if len(blocks) != 1 || len(blocks[0].Extents) != 1 {
		t.Fatalf("unit content wrong: %+v", blocks)
	}
	p.FinishRecycle(u, time.Microsecond, time.Microsecond, 1, 1, 80)
	if got := p.Stats().UnitsRecycled; got != 1 {
		t.Fatalf("units recycled = %d", got)
	}
}

func TestRotationReusesRecycled(t *testing.T) {
	p := MustNewPool(testCfg(100, 2))
	defer p.Close()
	p.Append(blk(1), 0, make([]byte, 80), 0) // seal #1
	u := p.TakeRecyclable(false)
	p.FinishRecycle(u, 0, 0, 1, 1, 80)
	p.Append(blk(2), 0, make([]byte, 80), 0) // seal #2 (new unit)
	u2 := p.TakeRecyclable(false)
	p.FinishRecycle(u2, 0, 0, 1, 1, 80)
	// Third append must reuse a recycled unit, not exceed MaxUnits.
	p.Append(blk(3), 0, []byte("x"), 0)
	if got := p.Stats().UnitsAllocated; got > 2 {
		t.Fatalf("allocated %d units, quota is 2", got)
	}
}

func TestBackpressureBlocksUntilRecycle(t *testing.T) {
	p := MustNewPool(testCfg(100, 1))
	defer p.Close()
	p.Append(blk(1), 0, make([]byte, 80), 0) // seals the only unit

	var appended atomic.Bool
	done := make(chan struct{})
	go func() {
		p.Append(blk(2), 0, []byte("y"), 0) // must block: no unit free
		appended.Store(true)
		close(done)
	}()
	time.Sleep(20 * time.Millisecond)
	if appended.Load() {
		t.Fatal("append should have blocked under quota pressure")
	}
	u := p.TakeRecyclable(false)
	if u == nil {
		t.Fatal("expected recyclable unit")
	}
	p.FinishRecycle(u, 0, 0, 1, 1, 80)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("append did not unblock after recycle")
	}
}

func TestOverlayPendingOnly(t *testing.T) {
	p := MustNewPool(testCfg(100, 2))
	defer p.Close()
	p.Append(blk(1), 4, []byte{7, 7}, 0)
	dst := make([]byte, 8)
	p.Overlay(blk(1), 0, dst)
	if dst[4] != 7 || dst[5] != 7 {
		t.Fatalf("pending overlay missing: %v", dst)
	}
	// Recycle it; overlay must no longer apply (content is on disk).
	p.SealActive(0)
	u := p.TakeRecyclable(false)
	p.FinishRecycle(u, 0, 0, 1, 1, 2)
	dst = make([]byte, 8)
	p.Overlay(blk(1), 0, dst)
	if dst[4] != 0 {
		t.Fatalf("recycled overlay must not apply: %v", dst)
	}
	// But the cache still serves lookups until the unit is reused.
	if d, ok := lookup(p, blk(1), 4, 2); !ok || d[0] != 7 {
		t.Fatal("recycled unit must serve as read cache")
	}
}

func TestOverlayOrderAcrossUnits(t *testing.T) {
	p := MustNewPool(testCfg(64, 4))
	defer p.Close()
	p.Append(blk(1), 0, bytes.Repeat([]byte{1}, 40), 0) // seals unit 1
	p.Append(blk(1), 2, bytes.Repeat([]byte{2}, 4), 0)  // unit 2
	dst := make([]byte, 8)
	p.Overlay(blk(1), 0, dst)
	want := []byte{1, 1, 2, 2, 2, 2, 1, 1}
	if !bytes.Equal(dst, want) {
		t.Fatalf("cross-unit overlay = %v, want %v", dst, want)
	}
}

func TestLookupOverlaysNewerUnits(t *testing.T) {
	p := MustNewPool(testCfg(64, 4))
	defer p.Close()
	// A full-covering record seals into unit 1; a newer partial update
	// lands in unit 2. A covering lookup must serve the newer bytes, not
	// the sealed unit's stale full cover.
	p.Append(blk(1), 0, bytes.Repeat([]byte{1}, 40), 0) // seals unit 1
	p.Append(blk(1), 8, bytes.Repeat([]byte{2}, 4), 0)  // unit 2
	d, ok := lookup(p, blk(1), 0, 40)
	if !ok {
		t.Fatal("full range should hit the cache")
	}
	want := append(bytes.Repeat([]byte{1}, 8), append(bytes.Repeat([]byte{2}, 4), bytes.Repeat([]byte{1}, 28)...)...)
	if !bytes.Equal(d, want) {
		t.Fatalf("lookup ignored newer unit: got %v, want %v", d[:16], want[:16])
	}
	// The same holds after the covering unit recycles into a read-cache
	// role: the retained index is still older than the pending update.
	u := p.TakeRecyclable(false)
	if u == nil {
		t.Fatal("expected recyclable unit")
	}
	p.FinishRecycle(u, 0, 0, 1, 1, 40)
	if d, ok = lookup(p, blk(1), 0, 40); !ok || !bytes.Equal(d, want) {
		t.Fatalf("post-recycle lookup ignored newer unit: ok=%v got %v", ok, d[:16])
	}
}

// Appends mutate the active unit's extents in place, so a read must be
// a copy taken under the unit lock: every 4 KiB page a reader gets back
// is one writer's whole record, never a mix (and never a slice a later
// append writes through — the race detector sees that one).
func TestReadsOfActiveUnitAreWholeRecords(t *testing.T) {
	const page, pages, writers, appends = 4096, 16, 3, 400
	p := MustNewPool(testCfg(1<<30, 2)) // never seals: one active unit throughout
	defer p.Close()
	p.Append(blk(1), 0, make([]byte, page*pages), 0)

	whole := func(d []byte) bool { return bytes.Count(d, d[:1]) == len(d) }
	var done atomic.Bool
	var wg, readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			dst := make([]byte, page)
			for i := 0; !done.Load(); i++ {
				off := uint32(i % pages * page)
				d, ok := lookup(p, blk(1), off, page)
				if !ok || !whole(d) {
					t.Errorf("Lookup(page %d): hit=%v, bytes of more than one record", i%pages, ok)
					return
				}
				p.Overlay(blk(1), off, dst)
				if !whole(dst) {
					t.Errorf("Overlay(page %d): bytes of more than one record", i%pages)
					return
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < appends; i++ {
				fill := byte(1 + w + writers*(i%80))
				p.Append(blk(1), uint32((i+w)%pages*page), bytes.Repeat([]byte{fill}, page), 0)
			}
		}()
	}
	wg.Wait()
	done.Store(true)
	readers.Wait()
}

func TestDrainWithRecycler(t *testing.T) {
	p := MustNewPool(testCfg(128, 3))
	var recycled atomic.Int64
	StartRecycler(p, 2, func(be BlockExtents, sealV time.Duration) time.Duration {
		recycled.Add(int64(len(be.Extents)))
		return time.Microsecond
	})
	for i := 0; i < 50; i++ {
		p.Append(blk(i%5), uint32(i*8), make([]byte, 8), time.Duration(i))
	}
	p.Drain(100)
	if recycled.Load() == 0 {
		t.Fatal("nothing recycled")
	}
	for i := 0; i < 5; i++ {
		if p.Pending(blk(i), 0, 4096) {
			t.Fatalf("block %d still pending after drain", i)
		}
	}
	p.Close()
}

// TestUnitRecyclerAccounts: a unit recycler hands its function the
// whole unit and books the unit's records, extents and bytes with the
// cost and wall the function reports.
func TestUnitRecyclerAccounts(t *testing.T) {
	p := MustNewPool(Config{Name: "unit", Mode: NoMerge, UnitSize: 1 << 20, MaxUnits: 2})
	var units atomic.Int64
	r := StartUnitRecycler(p, func(blocks []BlockExtents) (cost, wall time.Duration) {
		units.Add(1)
		if len(blocks) != 3 {
			t.Errorf("unit handed over %d blocks, want 3", len(blocks))
		}
		return 3 * time.Millisecond, time.Millisecond
	})
	for i := 0; i < 6; i++ {
		p.Append(blk(i%3), uint32(i*8), make([]byte, 8), time.Duration(i))
	}
	p.Drain(10)
	p.Close()
	r.Wait()
	st := p.Stats()
	if units.Load() != 1 || st.UnitsRecycled != 1 {
		t.Fatalf("recycled %d units (stats %d), want 1", units.Load(), st.UnitsRecycled)
	}
	if st.RecycleCount != 6 || st.RecycledExtents != 6 || st.RecycledBytes != 48 {
		t.Fatalf("booked %d records, %d extents, %d bytes; want 6, 6, 48", st.RecycleCount, st.RecycledExtents, st.RecycledBytes)
	}
	if st.RecycleCost != 3*time.Millisecond {
		t.Fatalf("recycle cost %v, want 3ms", st.RecycleCost)
	}
}

func TestRecyclerPerBlockOrdering(t *testing.T) {
	p := MustNewPool(Config{Name: "ord", Mode: NoMerge, UnitSize: 80, MaxUnits: 8})
	var mu sync.Mutex
	seen := map[wire.BlockID][]byte{}
	StartRecycler(p, 4, func(be BlockExtents, _ time.Duration) time.Duration {
		mu.Lock()
		defer mu.Unlock()
		for _, e := range be.Extents {
			seen[be.Block] = append(seen[be.Block], e.Data[0])
		}
		return 0
	})
	// Two appends per block per unit; units seal every ~2 appends.
	for round := byte(0); round < 10; round++ {
		p.Append(blk(1), 0, []byte{round}, 0)
		p.Append(blk(2), 0, []byte{round}, 0)
	}
	p.Drain(0)
	mu.Lock()
	defer mu.Unlock()
	for b, order := range seen {
		for i := 1; i < len(order); i++ {
			if order[i] < order[i-1] {
				t.Fatalf("block %v recycled out of order: %v", b, order)
			}
		}
	}
	p.Close()
}

func TestConcurrentAppendersWithRecycler(t *testing.T) {
	p := MustNewPool(testCfg(4<<10, 4))
	StartRecycler(p, 4, func(be BlockExtents, _ time.Duration) time.Duration {
		return time.Microsecond
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p.Append(blk(g*1000+i%7), uint32(i*16), make([]byte, 16), 0)
			}
		}(g)
	}
	wg.Wait()
	p.Drain(0)
	s := p.Stats()
	if s.AppendedEntries != 1600 {
		t.Fatalf("appended = %d, want 1600", s.AppendedEntries)
	}
	p.Close()
}

func TestLocalityMergingReducesRecycleWork(t *testing.T) {
	// 100 updates to the same 8 bytes must recycle as ~1 extent.
	p := MustNewPool(Config{Name: "loc", Mode: Overwrite, UnitSize: 1 << 20, MaxUnits: 2})
	for i := 0; i < 100; i++ {
		p.Append(blk(1), 64, make([]byte, 8), 0)
	}
	var extents atomic.Int64
	StartRecycler(p, 1, func(be BlockExtents, _ time.Duration) time.Duration {
		extents.Add(int64(len(be.Extents)))
		return 0
	})
	p.Drain(0)
	if extents.Load() != 1 {
		t.Fatalf("recycled %d extents, want 1 (temporal locality)", extents.Load())
	}
	s := p.Stats()
	if s.RecycledBytes != 8 || s.AppendedBytes != 800 {
		t.Fatalf("merge accounting wrong: %+v", s)
	}
	p.Close()
}

func TestDevicePersistenceCharged(t *testing.T) {
	dev := device.New("ssd", device.ChameleonSSD())
	p := MustNewPool(Config{Name: "dev", Mode: Overwrite, UnitSize: 1 << 20, MaxUnits: 2, Device: dev})
	defer p.Close()
	cost := p.Append(blk(1), 0, make([]byte, 4096), 0)
	if cost <= 0 {
		t.Fatal("append must charge the device")
	}
	st := dev.Stats()
	if st.Writes != 1 || st.SeqOps != 1 || st.RandomOps != 0 {
		t.Fatalf("append must be one sequential write: %+v", st)
	}
}

func TestMemoryBytes(t *testing.T) {
	p := MustNewPool(testCfg(1<<20, 4))
	defer p.Close()
	if p.MemoryBytes() != 1<<20 {
		t.Fatalf("one unit allocated: %d", p.MemoryBytes())
	}
}

func TestPoolSetRouting(t *testing.T) {
	ps, err := NewPoolSet(4, testCfg(1<<20, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	if len(ps.Pools()) != 4 {
		t.Fatal("want 4 pools")
	}
	// Same block always routes to the same pool.
	b := blk(42)
	p1, p2 := ps.Pick(b), ps.Pick(b)
	if p1 != p2 {
		t.Fatal("routing must be stable")
	}
	ps.Append(b, 0, []byte("data"), 0)
	if d, ok := lookup(ps.Pick(b), b, 0, 4); !ok || string(d) != "data" {
		t.Fatal("poolset lookup failed")
	}
	dst := make([]byte, 4)
	ps.Pick(b).Overlay(b, 0, dst)
	if string(dst) != "data" {
		t.Fatal("poolset overlay failed")
	}
	if ps.Stats().AppendedEntries != 1 {
		t.Fatal("poolset stats missing")
	}
	if ps.MemoryBytes() != 4<<20 {
		t.Fatalf("poolset memory = %d", ps.MemoryBytes())
	}
}

func TestSealActiveEmptyNoop(t *testing.T) {
	p := MustNewPool(testCfg(100, 2))
	defer p.Close()
	p.SealActive(0)
	if u := p.TakeRecyclable(false); u != nil {
		t.Fatal("sealing an empty unit must not produce recyclable work")
	}
}

func TestCloseUnblocksWaiters(t *testing.T) {
	p := MustNewPool(testCfg(100, 1))
	p.Append(blk(1), 0, make([]byte, 80), 0) // seal the only unit
	done := make(chan struct{})
	go func() {
		p.Append(blk(2), 0, []byte("z"), 0) // blocks
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	p.Close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not unblock appender")
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{Empty: "EMPTY", Recyclable: "RECYCLABLE", Recycling: "RECYCLING", Recycled: "RECYCLED"} {
		if s.String() != want {
			t.Fatalf("%v != %s", s, want)
		}
	}
	if State(9).String() == "" {
		t.Fatal("unknown state must stringify")
	}
}
