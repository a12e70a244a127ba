package update

import (
	"bytes"
	"context"
	"encoding/binary"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/blockstore"
	"repro/internal/device"
	"repro/internal/erasure"
	"repro/internal/logpool"
	"repro/internal/transport"
	"repro/internal/wire"
)

func TestIntervalSetBasic(t *testing.T) {
	var s intervalSet
	gaps := s.addGaps(10, 20)
	if len(gaps) != 1 || gaps[0] != (ival{10, 20}) {
		t.Fatalf("first add gaps = %v", gaps)
	}
	// Fully covered: no gaps.
	if gaps := s.addGaps(12, 18); len(gaps) != 0 {
		t.Fatalf("covered add gaps = %v", gaps)
	}
	// Overlap on both sides.
	gaps = s.addGaps(5, 25)
	if len(gaps) != 2 || gaps[0] != (ival{5, 10}) || gaps[1] != (ival{20, 25}) {
		t.Fatalf("straddling add gaps = %v", gaps)
	}
	if len(s.gaps(5, 25)) != 0 {
		t.Fatal("range should now be covered")
	}
	if len(s.gaps(4, 6)) == 0 || len(s.gaps(24, 26)) == 0 {
		t.Fatal("uncovered edges reported covered")
	}
}

func TestIntervalSetAdjacencyMerges(t *testing.T) {
	var s intervalSet
	s.addGaps(0, 10)
	s.addGaps(10, 20) // touching
	if len(s.ivs) != 1 || s.ivs[0] != (ival{0, 20}) {
		t.Fatalf("adjacent intervals not merged: %v", s.ivs)
	}
}

// TestIntervalSetGapsLeavesSet: gaps reports what addGaps would, and
// covers nothing.
func TestIntervalSetGapsLeavesSet(t *testing.T) {
	var s intervalSet
	s.addGaps(10, 20)
	gaps := s.gaps(5, 25)
	if len(gaps) != 2 || gaps[0] != (ival{5, 10}) || gaps[1] != (ival{20, 25}) {
		t.Fatalf("gaps = %v", gaps)
	}
	if len(s.ivs) != 1 || s.ivs[0] != (ival{10, 20}) {
		t.Fatalf("gaps changed the set: %v", s.ivs)
	}
}

func TestIntervalSetEmptyRange(t *testing.T) {
	var s intervalSet
	if gaps := s.addGaps(5, 5); gaps != nil {
		t.Fatalf("empty range gaps = %v", gaps)
	}
}

// Property: the union of returned gaps over a random insert sequence
// equals exactly the bytes not previously covered, and the set stays
// sorted and disjoint.
func TestIntervalSetMatchesModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var s intervalSet
		covered := map[uint32]bool{}
		for i := 0; i < 50; i++ {
			lo := uint32(rng.Intn(500))
			hi := lo + 1 + uint32(rng.Intn(60))
			gaps := s.addGaps(lo, hi)
			// Gaps must be exactly the uncovered bytes of [lo, hi).
			gapBytes := map[uint32]bool{}
			for _, g := range gaps {
				for b := g.lo; b < g.hi; b++ {
					if covered[b] {
						return false // gap reported for covered byte
					}
					gapBytes[b] = true
				}
			}
			for b := lo; b < hi; b++ {
				if !covered[b] && !gapBytes[b] {
					return false // uncovered byte missing from gaps
				}
				covered[b] = true
			}
		}
		// Invariants: sorted, disjoint, non-adjacent.
		for i := 1; i < len(s.ivs); i++ {
			if s.ivs[i-1].hi >= s.ivs[i].lo {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// refEncodeExtents is the reference extent-list encoder: every record
// as [off u32][len u32][v i64][bytes], little-endian, copied into one
// fresh slice. The senders write their lists in place (listSlots,
// encodeList); the tests hold them to this byte for byte.
func refEncodeExtents(exts []ExtentRec) []byte {
	var out []byte
	for _, e := range exts {
		out = binary.LittleEndian.AppendUint32(out, e.Off)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(e.Data)))
		out = binary.LittleEndian.AppendUint64(out, uint64(e.V))
		out = append(out, e.Data...)
	}
	return out
}

func TestExtentCodecRoundTrip(t *testing.T) {
	in := []ExtentRec{
		{Off: 0, Data: []byte("alpha")},
		{Off: 4096, Data: []byte{}},
		{Off: 1 << 30, Data: bytes.Repeat([]byte{7}, 300)},
	}
	out, err := DecodeExtents(refEncodeExtents(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("count %d != %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Off != in[i].Off || !bytes.Equal(out[i].Data, in[i].Data) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	if recs, err := DecodeExtents(nil); err != nil || len(recs) != 0 {
		t.Fatal("empty payload must decode to nothing")
	}
}

func TestExtentCodecTruncation(t *testing.T) {
	good := refEncodeExtents([]ExtentRec{{Off: 1, Data: []byte("abcdef")}})
	if _, err := DecodeExtents(good[:5]); err == nil {
		t.Fatal("truncated header must fail")
	}
	if _, err := DecodeExtents(good[:len(good)-2]); err == nil {
		t.Fatal("truncated body must fail")
	}
}

func TestNewRejectsUnknownMethod(t *testing.T) {
	if _, err := New("raid5", DefaultConfig(), nil); err == nil {
		t.Fatal("unknown method must fail")
	}
	cfg := DefaultConfig()
	cfg.BlockSize = 0
	if _, err := New("fo", cfg, nil); err == nil {
		t.Fatal("zero block size must fail")
	}
}

// TestNewConstructsEveryMethod: every registered method builds under
// its own name.
func TestNewConstructsEveryMethod(t *testing.T) {
	for _, name := range AllMethods {
		cfg := DefaultConfig()
		cfg.BlockSize = 4 << 10
		dev := device.New("solo", device.ChameleonSSD())
		s, err := New(name, cfg, &soloEnv{store: blockstore.New(dev), dev: dev})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Name() != name {
			t.Fatalf("New(%q) built %q", name, s.Name())
		}
		s.Close()
	}
}

func TestMethodLists(t *testing.T) {
	if len(Methods) != 6 || Methods[len(Methods)-1] != "tsue" {
		t.Fatalf("Methods = %v", Methods)
	}
	if len(AllMethods) != 7 {
		t.Fatalf("AllMethods = %v", AllMethods)
	}
}

func TestParityBlockHelper(t *testing.T) {
	b := wire.BlockID{Ino: 1, Stripe: 2, Idx: 1}
	pb := parityBlock(b, 6, 2)
	if pb.Idx != 8 || pb.Ino != 1 || pb.Stripe != 2 {
		t.Fatalf("parityBlock = %v", pb)
	}
}

func TestDefaultConfigSane(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.UnitSize != 16<<20 || cfg.MaxUnits != 4 || cfg.Pools != 4 {
		t.Fatalf("paper defaults wrong: %+v", cfg)
	}
	if !cfg.UseDeltaLog || !cfg.UseLogPool || !cfg.DataLogLocality || !cfg.ParityLogLocality {
		t.Fatal("paper defaults must enable all optimizations")
	}
	if cfg.DataLogReplicas != 1 {
		t.Fatal("SSD profile uses 2 copies total (1 replica)")
	}
}

// fakeEnv routes Call through a stub for fanout tests; CallBatch runs
// the stub once per call, concurrently, as the in-process transport
// does.
// Placement answers from the placements learn was shown.
type fakeEnv struct {
	call func(to wire.NodeID, msg *wire.Msg) (*wire.Resp, error)

	mu     sync.Mutex
	places map[stripeKey]Placement
}

// learn records the placement msg carries, as the OSD does before its
// strategy sees the message. Tests never send an older epoch.
func (f *fakeEnv) learn(msg *wire.Msg) {
	if len(msg.Loc.Nodes) == 0 {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.places == nil {
		f.places = make(map[stripeKey]Placement)
	}
	f.places[keyOf(msg.Block)] = Placement{K: int(msg.K), M: int(msg.M), Loc: msg.Loc}
}

func (f *fakeEnv) Placement(b wire.BlockID) (Placement, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	p, ok := f.places[keyOf(b)]
	return p, ok
}

func (f *fakeEnv) ID() wire.NodeID          { return 1 }
func (f *fakeEnv) Store() *blockstore.Store { return nil }
func (f *fakeEnv) Dev() *device.Device      { return nil }
func (f *fakeEnv) Call(_ context.Context, to wire.NodeID, msg *wire.Msg) (*wire.Resp, error) {
	return f.call(to, msg)
}
func (f *fakeEnv) CallBatch(ctx context.Context, calls []*transport.BatchCall) {
	var wg sync.WaitGroup
	for _, bc := range calls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bc.Resp, bc.Err = f.call(bc.To, bc.Msg)
		}()
	}
	wg.Wait()
}
func (f *fakeEnv) Code(k, m int) (*erasure.Code, error) {
	return erasure.New(k, m, erasure.Vandermonde)
}

// soloEnv is a one-node environment with a real store: enough to
// construct a strategy.
type soloEnv struct {
	fakeEnv
	store *blockstore.Store
	dev   *device.Device
}

func (e *soloEnv) Store() *blockstore.Store { return e.store }
func (e *soloEnv) Dev() *device.Device      { return e.dev }

func TestFanoutEmpty(t *testing.T) {
	cost, err := fanout(context.Background(), &fakeEnv{}, nil, nil)
	if err != nil || cost != 0 {
		t.Fatalf("empty fanout: %v %v", cost, err)
	}
}

func TestFanoutMaxCost(t *testing.T) {
	env := &fakeEnv{call: func(to wire.NodeID, msg *wire.Msg) (*wire.Resp, error) {
		return &wire.Resp{Cost: time.Duration(to) * time.Microsecond}, nil
	}}
	cost, err := fanout(context.Background(), env, []wire.NodeID{2, 9, 5}, func(int) *wire.Msg {
		return &wire.Msg{Kind: wire.KPing}
	})
	if err != nil {
		t.Fatal(err)
	}
	if cost != 9*time.Microsecond {
		t.Fatalf("fanout cost = %v, want max 9us", cost)
	}
}

func TestFanoutPropagatesErrors(t *testing.T) {
	env := &fakeEnv{call: func(to wire.NodeID, msg *wire.Msg) (*wire.Resp, error) {
		if to == 3 {
			return &wire.Resp{Err: "boom"}, nil
		}
		return &wire.Resp{}, nil
	}}
	if _, err := fanout(context.Background(), env, []wire.NodeID{2, 3, 4}, func(int) *wire.Msg {
		return &wire.Msg{Kind: wire.KPing}
	}); err == nil {
		t.Fatal("remote error must propagate")
	}
	// Single-target path too.
	if _, err := fanout(context.Background(), env, []wire.NodeID{3}, func(int) *wire.Msg {
		return &wire.Msg{Kind: wire.KPing}
	}); err == nil {
		t.Fatal("single-target remote error must propagate")
	}
}

// TestReadThroughSeesUnitRecycledMidRead: a unit that finishes
// recycling after the base read but before the overlay is in neither,
// so fillThrough must read the base again and return the unit's bytes.
func TestReadThroughSeesUnitRecycledMidRead(t *testing.T) {
	pool := logpool.MustNewPool(logpool.Config{Name: "data", Mode: logpool.Overwrite, UnitSize: 1 << 20, MaxUnits: 2})
	defer pool.Close()
	b := wire.BlockID{Ino: 1}
	pool.Append(b, 0, []byte("new"), 0)
	pool.SealActive(0)
	u := pool.TakeRecyclable(false)
	stored := []byte("old")
	reads := 0
	got := make([]byte, len(stored))
	_, err := fillThrough(pool, b, 0, got, func(dst []byte) (time.Duration, error) {
		reads++
		copy(dst, stored)
		if reads == 1 {
			// The recycle's store write lands just after this read,
			// and the unit leaves the overlay.
			copy(stored, "new")
			pool.FinishRecycle(u, 0, 0, 1, 1, 3)
		}
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "new" || reads != 2 {
		t.Fatalf("read %q after %d base reads, want \"new\" after 2", got, reads)
	}
}

// TestWarmFOAllocatesNoPayload gates the in-place update paths on a
// warm in-memory store. FO's parity handler folds a 64 KiB delta into
// the parity block scaled in place; FO's, PL's and PLR's update write
// their delta into a pooled buffer that the parity fanout borrows —
// PL and PLR as M parity-delta lists scaled in that buffer — and TSUE's
// DataLog recycle with O5 off scales its M lists into one. None
// allocates a payload-sized slice per call. The bound is half of what
// a call borrows from the pool (half the payload for the fold), not
// less: under the race detector sync.Pool drops a quarter of what is
// put back, so a quarter of the calls miss the pool.
func TestWarmFOAllocatesNoPayload(t *testing.T) {
	const k, m, size, n = 2, 2, 1 << 20, 64 << 10
	const list = extentHeaderSize + n // an extent list of one delta
	cfg := DefaultConfig()
	cfg.BlockSize = size
	dev := device.New("osd", device.ChameleonSSD())
	var sent atomic.Int64 // the parity fanout calls concurrently
	env := &soloEnv{fakeEnv: fakeEnv{call: func(_ wire.NodeID, msg *wire.Msg) (*wire.Resp, error) {
		sent.Add(int64(len(msg.Data)))
		return &wire.Resp{}, nil
	}}, store: blockstore.New(dev), dev: dev}
	data := bytes.Repeat([]byte{0x3c}, n)
	loc := wire.StripeLoc{Nodes: []wire.NodeID{1, 2, 3, 4}}
	b := wire.BlockID{Ino: 1, Idx: 1}
	msg := func() *wire.Msg {
		return &wire.Msg{Kind: wire.KUpdate, Block: b, Off: 9, Data: data, K: k, M: m, Loc: loc, V: 1}
	}
	env.learn(msg())
	f, err := newFO(cfg, env)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p, err := newPL(cfg, env)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	r, err := newPLR(cfg, env)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	o5off := cfg
	o5off.UseDeltaLog = false
	ts, err := newTSUE(o5off, env)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	ops := []struct {
		name  string
		op    func() error
		bound int // bytes per call
		sends int // bytes per call
	}{
		{"parity-fold", func() error {
			_, err := applyParityDeltaInPlace(env, cfg, &wire.Msg{Kind: wire.KParityDelta,
				Block: wire.BlockID{Ino: 1, Idx: k + 1}, Off: 9, Data: data, Idx: 1, K: k, M: m})
			return err
		}, n / 2, 0},
		{"fo-update", func() error {
			_, err := f.Update(context.Background(), msg())
			return err
		}, n / 2, m * n},
		{"pl-update", func() error {
			_, err := p.Update(context.Background(), msg())
			return err
		}, m * list / 2, m * list},
		{"plr-update", func() error {
			_, err := r.Update(context.Background(), msg())
			return err
		}, m * list / 2, m * list},
		{"tsue-o5-off-recycle", func() error {
			ts.recycleData(logpool.BlockExtents{Block: b, Extents: []logpool.Extent{{Off: 9, Data: data, V: 1}}}, 1)
			return nil
		}, (1 + m) * list / 2, m * list},
	}
	for _, o := range ops {
		const runs = 40
		for i := 0; i < 4; i++ {
			if err := o.op(); err != nil {
				t.Fatal(err)
			}
		}
		sent.Store(0)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if err := o.op(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perCall := float64(after.TotalAlloc-before.TotalAlloc) / runs
		t.Logf("%s: %.0f B/call", o.name, perCall)
		if perCall >= float64(o.bound) {
			t.Errorf("%s allocated %.0f bytes per call: the delta goes through a fresh slice", o.name, perCall)
		}
		if got := sent.Load(); got != int64(runs*o.sends) {
			t.Errorf("%s sent %d delta bytes, want %d", o.name, got, runs*o.sends)
		}
	}
}
