package update

import (
	"bytes"
	"context"
	"math/rand"
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

func TestExtentCodecRoundTrip(t *testing.T) {
	in := []ExtentRec{
		{Off: 0, Data: []byte("alpha")},
		{Off: 4096, Data: []byte{}},
		{Off: 1 << 30, Data: bytes.Repeat([]byte{7}, 300)},
	}
	out, err := DecodeExtents(EncodeExtents(in))
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
	good := EncodeExtents([]ExtentRec{{Off: 1, Data: []byte("abcdef")}})
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

func TestStripeTable(t *testing.T) {
	st := newStripeTable()
	msg := &wire.Msg{
		Block: wire.BlockID{Ino: 1, Stripe: 2, Idx: 0},
		K:     2, M: 1,
		Loc: wire.StripeLoc{Nodes: []wire.NodeID{1, 2, 3}},
	}
	st.remember(msg)
	si, ok := st.get(wire.BlockID{Ino: 1, Stripe: 2, Idx: 1}) // same stripe, other block
	if !ok || si.K != 2 || si.M != 1 {
		t.Fatalf("lookup failed: %+v %v", si, ok)
	}
	if si.parityNode(0) != 3 {
		t.Fatalf("parity node = %d", si.parityNode(0))
	}
	if _, ok := st.get(wire.BlockID{Ino: 9, Stripe: 9}); ok {
		t.Fatal("unknown stripe must miss")
	}
	// Empty placement ignored.
	st.remember(&wire.Msg{Block: wire.BlockID{Ino: 5}})
	if _, ok := st.get(wire.BlockID{Ino: 5}); ok {
		t.Fatal("empty placement must not be remembered")
	}
}

func TestParityBlockHelper(t *testing.T) {
	b := wire.BlockID{Ino: 1, Stripe: 2, Idx: 1}
	pb := parityBlock(b, 6, 2)
	if pb.Idx != 8 || pb.Ino != 1 || pb.Stripe != 2 {
		t.Fatalf("parityBlock = %v", pb)
	}
}

func TestDeltaRecordCodec(t *testing.T) {
	rec := encodeDeltaRecord(5, []byte("delta"))
	src, delta := decodeDeltaRecord(rec)
	if src != 5 || string(delta) != "delta" {
		t.Fatalf("decoded %d %q", src, delta)
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

// fakeEnv routes Call through a stub for fanout tests; CallBatch fans
// the stub out through transport.Fanout's concurrent-call path.
type fakeEnv struct {
	call func(to wire.NodeID, msg *wire.Msg) (*wire.Resp, error)
}

func (f *fakeEnv) ID() wire.NodeID          { return 1 }
func (f *fakeEnv) Store() *blockstore.Store { return nil }
func (f *fakeEnv) Dev() *device.Device      { return nil }
func (f *fakeEnv) Call(_ context.Context, to wire.NodeID, msg *wire.Msg) (*wire.Resp, error) {
	return f.call(to, msg)
}
func (f *fakeEnv) CallBatch(ctx context.Context, calls []*transport.BatchCall) {
	// The anonymous struct exposes only Call, so Fanout runs one
	// concurrent Call per target instead of recursing into CallBatch.
	transport.Fanout(ctx, struct{ transport.RPC }{f}, calls)
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
	cost, err := fanout(context.Background(), env, []wire.NodeID{2, 9, 5}, func(to wire.NodeID) *wire.Msg {
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
	if _, err := fanout(context.Background(), env, []wire.NodeID{2, 3, 4}, func(to wire.NodeID) *wire.Msg {
		return &wire.Msg{Kind: wire.KPing}
	}); err == nil {
		t.Fatal("remote error must propagate")
	}
	// Single-target path too.
	if _, err := fanout(context.Background(), env, []wire.NodeID{3}, func(to wire.NodeID) *wire.Msg {
		return &wire.Msg{Kind: wire.KPing}
	}); err == nil {
		t.Fatal("single-target remote error must propagate")
	}
}

// TestReadThroughSeesUnitRecycledMidRead: a unit that finishes
// recycling after the base read but before the overlay is in neither,
// so readThrough must read the base again and return the unit's bytes.
func TestReadThroughSeesUnitRecycledMidRead(t *testing.T) {
	pool := logpool.MustNewPool(logpool.Config{Name: "data", Mode: logpool.Overwrite, UnitSize: 1 << 20, MaxUnits: 2})
	defer pool.Close()
	b := wire.BlockID{Ino: 1}
	pool.Append(b, 0, []byte("new"), 0)
	pool.SealActive(0)
	u := pool.TakeRecyclable(false)
	stored := []byte("old")
	reads := 0
	got, _, err := readThrough(pool, b, 0, func() ([]byte, time.Duration, error) {
		reads++
		out := bytes.Clone(stored)
		if reads == 1 {
			// The recycle's store write lands just after this read,
			// and the unit leaves the overlay.
			copy(stored, "new")
			pool.FinishRecycle(u, 0, 0, 1, 1, 3)
		}
		return out, 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "new" || reads != 2 {
		t.Fatalf("read %q after %d base reads, want \"new\" after 2", got, reads)
	}
}
