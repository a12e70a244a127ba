package update

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/blockstore"
	"repro/internal/device"
	"repro/internal/erasure"
	"repro/internal/gf256"
	"repro/internal/logpool"
	"repro/internal/wire"
)

// refParityDeltas is the M-pass Eq. 5 merge parityDeltaLists replaced:
// one XorFold index per parity, fed every source extent scaled by its
// coefficient. It stays here as the reference the fused helper must
// match.
func refParityDeltas(code *erasure.Code, blocks map[int][]logpool.Extent) [][]logpool.Extent {
	out := make([][]logpool.Extent, code.M)
	for j := range out {
		merged := logpool.NewIndex(logpool.XorFold)
		for src, exts := range blocks {
			for _, e := range exts {
				merged.InsertScaled(code.Coeff(j, src), e.Off, e.Data, e.V)
			}
		}
		out[j] = merged.Extents()
	}
	return out
}

// randomSources draws up to n extents for each of k source blocks in a
// small address window, so extents overlap (within and across sources),
// touch and leave gaps.
func randomSources(rng *rand.Rand, k, n int) map[int][]logpool.Extent {
	blocks := make(map[int][]logpool.Extent)
	for src := 0; src < k; src++ {
		if rng.Intn(4) == 0 {
			continue // a source with no deltas
		}
		for i := rng.Intn(n + 1); i > 0; i-- {
			off := uint32(rng.Intn(64)) * 16
			if rng.Intn(3) == 0 {
				off += uint32(rng.Intn(16)) // unaligned
			}
			data := make([]byte, rng.Intn(200))
			rng.Read(data)
			blocks[src] = append(blocks[src], logpool.Extent{Off: off, Data: data, V: time.Duration(rng.Intn(1000))})
		}
	}
	return blocks
}

// TestParityDeltaListsMatchesReference: the fused one-pass Eq. 5 helper
// yields exactly the M merged indexes of the M-pass InsertScaled loop —
// same offsets, same bytes, same minimum V per merged extent.
func TestParityDeltaListsMatchesReference(t *testing.T) {
	for _, geo := range []struct{ k, m int }{{6, 4}, {2, 2}} {
		code := erasure.MustNew(geo.k, geo.m, erasure.Vandermonde)
		rng := rand.New(rand.NewSource(int64(geo.k)))
		for trial := 0; trial < 300; trial++ {
			blocks := randomSources(rng, geo.k, 6)
			want := refParityDeltas(code, blocks)
			lists := parityDeltaLists(code, blocks)
			if len(lists) != geo.m {
				t.Fatalf("RS(%d,%d): %d lists, want %d", geo.k, geo.m, len(lists), geo.m)
			}
			for j, list := range lists {
				got, err := DecodeExtents(list)
				if err != nil {
					t.Fatalf("RS(%d,%d) trial %d parity %d: %v", geo.k, geo.m, trial, j, err)
				}
				if len(got) != len(want[j]) {
					t.Fatalf("RS(%d,%d) trial %d parity %d: %d extents, want %d", geo.k, geo.m, trial, j, len(got), len(want[j]))
				}
				for i, w := range want[j] {
					g := got[i]
					if g.Off != w.Off || time.Duration(g.V) != w.V || !bytes.Equal(g.Data, w.Data) {
						t.Fatalf("RS(%d,%d) trial %d parity %d extent %d: got off %d v %d len %d, want off %d v %d len %d (bytes equal %v)",
							geo.k, geo.m, trial, j, i, g.Off, g.V, len(g.Data), w.Off, w.V, len(w.Data), bytes.Equal(g.Data, w.Data))
					}
				}
			}
		}
	}
}

// recorder is a fakeEnv call stub that answers every call OK and keeps
// a copy of each message.
type recorder struct {
	mu   sync.Mutex
	msgs []*wire.Msg
}

func (r *recorder) call(to wire.NodeID, msg *wire.Msg) (*wire.Resp, error) {
	m := *msg
	m.Data = bytes.Clone(msg.Data)
	m.Size = uint32(to) // the destination, for the assertions
	r.mu.Lock()
	r.msgs = append(r.msgs, &m)
	r.mu.Unlock()
	return &wire.Resp{}, nil
}

// count returns how many recorded messages satisfy keep.
func (r *recorder) count(keep func(*wire.Msg) bool) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, m := range r.msgs {
		if keep(m) {
			n++
		}
	}
	return n
}

// newRecordedTSUE builds a TSUE instance on node 1 whose peer calls
// land in the returned recorder. It runs one pool per log layer, so a
// drain recycles every block of a layer as one unit.
func newRecordedTSUE(t *testing.T) (*tsue, *recorder) {
	t.Helper()
	rec := &recorder{}
	cfg := DefaultConfig()
	cfg.BlockSize = 64 << 10
	cfg.Pools = 1
	dev := device.New("osd", device.ChameleonSSD())
	env := &soloEnv{fakeEnv: fakeEnv{call: rec.call}, store: blockstore.New(dev), dev: dev}
	s, err := newTSUE(cfg, env)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, rec
}

func handleOK(t *testing.T, s *tsue, msg *wire.Msg) {
	t.Helper()
	if resp := handle(s, msg); !resp.OK() {
		t.Fatalf("%v: %s", msg.Kind, resp.Err)
	}
}

// handle and update deliver msg to s as the OSD does: its environment
// learns the placement msg carries first.
func handle(s *tsue, msg *wire.Msg) *wire.Resp {
	s.env.(interface{ learn(*wire.Msg) }).learn(msg)
	return s.Handle(context.Background(), msg)
}

func update(s *tsue, msg *wire.Msg) (time.Duration, error) {
	s.env.(interface{ learn(*wire.Msg) }).learn(msg)
	return s.Update(context.Background(), msg)
}

// TestCopyTrimKeepsNewerCopy: the second parity OSD holds copies A and
// then B of one range and gets the trim for A alone (the primary
// recycled a unit sealed before B arrived). When the primary dies,
// promotion must send coeff·B, whether the trim arrives before or after
// B. A trim for a block with no copies (the holder restarted after
// taking A) cancels nothing.
func TestCopyTrimKeepsNewerCopy(t *testing.T) {
	const k, m = 2, 2
	loc := wire.StripeLoc{Nodes: []wire.NodeID{10, 11, 12, 1}} // parity 0 on 12, parity 1 here
	b := wire.BlockID{Ino: 7, Stripe: 3, Idx: 1}
	a := bytes.Repeat([]byte{0x5A}, 512)
	bb := make([]byte, 512)
	rand.New(rand.NewSource(1)).Read(bb)
	list := func(data []byte) []byte { return refEncodeExtents([]ExtentRec{{Off: 4096, Data: data}}) }
	msg := func(role uint8, data []byte) *wire.Msg {
		return &wire.Msg{Kind: wire.KDeltaLogAdd, Block: b, Data: list(data), Idx: b.Idx, K: k, M: m, Loc: loc, Flag: role}
	}
	code := erasure.MustNew(k, m, erasure.Vandermonde)
	want := make([]byte, len(bb))
	gf256.MulSlice(code.Coeff(1, int(b.Idx)), want, bb)

	for name, order := range map[string][]*wire.Msg{
		"copies then trim": {msg(roleCopy, a), msg(roleCopy, bb), msg(roleTrim, a)},
		"trim of no copy":  {msg(roleTrim, a), msg(roleCopy, bb)},
		"trim between":     {msg(roleCopy, a), msg(roleTrim, a), msg(roleCopy, bb)},
	} {
		t.Run(name, func(t *testing.T) {
			s, rec := newRecordedTSUE(t)
			for _, msg := range order {
				handleOK(t, s, msg)
			}
			if err := s.promoteCopies(context.Background(), []wire.NodeID{12}); err != nil {
				t.Fatal(err)
			}
			if len(rec.msgs) != 1 {
				t.Fatalf("promotion sent %d messages, want 1 (to the live parity)", len(rec.msgs))
			}
			got := rec.msgs[0]
			recs, err := DecodeExtents(got.Data)
			if err != nil {
				t.Fatal(err)
			}
			if got.Kind != wire.KParityLogAdd || got.Size != 1 || got.Block != parityBlock(b, k, 1) ||
				len(recs) != 1 || recs[0].Off != 4096 || !bytes.Equal(recs[0].Data, want) {
				t.Fatalf("promotion sent %v of %v to node %d with %d extents; want coeff·B at 4096 to parity 1",
					got.Kind, got.Block, got.Size, len(recs))
			}
			// What was promoted is cancelled: a second promotion sends
			// nothing, and the drain prunes the emptied copy.
			if err := s.promoteCopies(context.Background(), []wire.NodeID{12}); err != nil {
				t.Fatal(err)
			}
			if len(rec.msgs) != 1 {
				t.Fatalf("second promotion sent %d more messages", len(rec.msgs)-1)
			}
			s.pruneCopies()
			if n := len(s.deltaCopy); n != 0 {
				t.Fatalf("%d copies left after promotion and prune", n)
			}
		})
	}
}

// nodeEnv is one node of a small in-process cluster of TSUE instances;
// its call stub routes a call to the destination's Handle.
type nodeEnv struct {
	soloEnv
	id wire.NodeID
}

func (e *nodeEnv) ID() wire.NodeID { return e.id }

// TestRefusedCopyIsNeverTrimmed: when the second parity OSD refuses a
// delta's copy, the data OSD bypasses the DeltaLog and sends the
// per-parity deltas to the parity logs. No primary takes the delta, so
// no trim reaches the holder, and promoting its copies after the first
// parity OSD dies sends nothing.
func TestRefusedCopyIsNeverTrimmed(t *testing.T) {
	const k, m = 2, 2
	const data, primary, holder = 1, 3, 4
	loc := wire.StripeLoc{Nodes: []wire.NodeID{data, 2, primary, holder}}
	nodes := map[wire.NodeID]*tsue{}
	var mu sync.Mutex
	sent := map[wire.NodeID][]wire.Kind{} // what each node sent, in order
	for _, id := range []wire.NodeID{data, primary, holder} {
		cfg := DefaultConfig()
		cfg.BlockSize = 64 << 10
		cfg.Pools = 1
		cfg.DataLogReplicas = 0
		dev := device.New("osd", device.ChameleonSSD())
		env := &nodeEnv{id: id, soloEnv: soloEnv{store: blockstore.New(dev), dev: dev}}
		env.call = func(to wire.NodeID, msg *wire.Msg) (*wire.Resp, error) {
			mu.Lock()
			sent[id] = append(sent[id], msg.Kind)
			mu.Unlock()
			if msg.Kind == wire.KDeltaLogAdd && msg.Flag&^deltaCompressFlag == roleCopy {
				return nil, errors.New("copy refused")
			}
			return handle(nodes[to], msg), nil
		}
		s, err := newTSUE(cfg, env)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		nodes[id] = s
	}
	b := wire.BlockID{Ino: 5, Stripe: 0, Idx: 0}
	u := &wire.Msg{Kind: wire.KUpdate, Block: b, Off: 512, Data: bytes.Repeat([]byte{0xC3}, 700), K: k, M: m, Loc: loc}
	if _, err := update(nodes[data], u); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for phase := 1; phase <= DrainPhases; phase++ {
		for _, id := range []wire.NodeID{data, primary} {
			if err := nodes[id].Drain(ctx, phase, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if want := []wire.Kind{wire.KDeltaLogAdd, wire.KParityLogAdd, wire.KParityLogAdd}; !slices.Equal(sent[data], want) {
		t.Fatalf("data OSD sent %v, want the refused copy, then M parity appends: %v", sent[data], want)
	}
	if len(sent[primary]) != 0 {
		t.Fatalf("first parity OSD sent %v, but it never took the delta", sent[primary])
	}
	if err := nodes[holder].promoteCopies(ctx, []wire.NodeID{primary}); err != nil {
		t.Fatal(err)
	}
	if len(sent[holder]) != 0 {
		t.Fatalf("promotion sent %v for a copy the holder never took", sent[holder])
	}
}

// TestStage2MessageShape: stage 2 sends lists, not extents. A DeltaLog
// unit spanning S stripes × B blocks sends exactly S×M parity appends
// and at most S×B trims; a DataLog recycle sends one delta append per
// target per block.
func TestStage2MessageShape(t *testing.T) {
	const (
		k, m      = 4, 2
		stripes   = 3
		perStripe = 3 // source blocks per stripe
		perBlock  = 4 // disjoint extents per block
	)
	t.Run("delta unit", func(t *testing.T) {
		s, rec := newRecordedTSUE(t)
		loc := wire.StripeLoc{Nodes: []wire.NodeID{20, 21, 22, 23, 1, 30}}
		rng := rand.New(rand.NewSource(3))
		for st := 0; st < stripes; st++ {
			for src := 0; src < perStripe; src++ {
				var recs []ExtentRec
				for e := 0; e < perBlock; e++ {
					data := make([]byte, 256+rng.Intn(256))
					rng.Read(data)
					recs = append(recs, ExtentRec{Off: uint32(e) * 8192, V: 5, Data: data})
				}
				b := wire.BlockID{Ino: 9, Stripe: uint32(st), Idx: uint8(src)}
				handleOK(t, s, &wire.Msg{Kind: wire.KDeltaLogAdd, Block: b, Data: refEncodeExtents(recs),
					Idx: b.Idx, K: k, M: m, Loc: loc, Flag: rolePrimary})
			}
		}
		if err := s.Drain(context.Background(), 2, nil); err != nil {
			t.Fatal(err)
		}
		parity := rec.count(func(msg *wire.Msg) bool { return msg.Kind == wire.KParityLogAdd })
		trims := rec.count(func(msg *wire.Msg) bool { return msg.Kind == wire.KDeltaLogAdd && msg.Flag == roleTrim })
		if parity != stripes*m {
			t.Fatalf("%d parity appends for %d stripes × M=%d", parity, stripes, m)
		}
		if trims == 0 || trims > stripes*perStripe {
			t.Fatalf("%d trims for %d stripes × %d blocks", trims, stripes, perStripe)
		}
		if rec.count(func(msg *wire.Msg) bool {
			return msg.Kind == wire.KDeltaLogAdd && msg.Flag == roleTrim && msg.Size != 30
		}) != 0 {
			t.Fatal("a trim went somewhere other than the second parity OSD")
		}
	})
	t.Run("data recycle", func(t *testing.T) {
		s, rec := newRecordedTSUE(t)
		loc := wire.StripeLoc{Nodes: []wire.NodeID{1, 40, 41, 42, 43, 44}}
		for idx := 0; idx < 2; idx++ {
			b := wire.BlockID{Ino: 9, Stripe: 0, Idx: uint8(idx)}
			for e := 0; e < perBlock; e++ {
				u := &wire.Msg{Kind: wire.KUpdate, Block: b, Off: uint32(e) * 8192, Data: bytes.Repeat([]byte{byte(e + 1)}, 300),
					K: k, M: m, Loc: loc}
				if _, err := update(s, u); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := s.Drain(context.Background(), 1, nil); err != nil {
			t.Fatal(err)
		}
		for _, to := range []wire.NodeID{43, 44} {
			for idx := 0; idx < 2; idx++ {
				n := rec.count(func(msg *wire.Msg) bool {
					return msg.Kind == wire.KDeltaLogAdd && msg.Size == uint32(to) && msg.Block.Idx == uint8(idx)
				})
				if n != 1 {
					t.Fatalf("block %d: %d delta appends to node %d, want 1", idx, n, to)
				}
			}
		}
	})
}

// TestInPlaceListsMatchReference: every extent list TSUE writes in
// place — a DataLog recycle's slots, a copy trim, a KReplicaFetch
// reply — is byte for byte the list refEncodeExtents encodes from the
// same records.
func TestInPlaceListsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// records returns n disjoint records of random bytes, one of them
	// empty, each with its own V.
	records := func(n int) []ExtentRec {
		recs := make([]ExtentRec, n)
		for i := range recs {
			data := make([]byte, rng.Intn(300))
			rng.Read(data)
			recs[i] = ExtentRec{Off: uint32(i) * 1024, V: int64(7*i + 3), Data: data}
		}
		recs[n/2].Data = nil
		return recs
	}
	// Log indexes drop an empty record: it holds no bytes.
	nonEmpty := func(recs []ExtentRec) []ExtentRec {
		return slices.DeleteFunc(slices.Clone(recs), func(r ExtentRec) bool { return len(r.Data) == 0 })
	}
	extents := func(recs []ExtentRec) []logpool.Extent {
		exts := make([]logpool.Extent, len(recs))
		for i, r := range recs {
			exts[i] = logpool.Extent{Off: r.Off, V: time.Duration(r.V), Data: r.Data}
		}
		return exts
	}

	t.Run("encodeList", func(t *testing.T) {
		recs := records(6)
		list := make([]byte, listSize(extents(recs)))
		encodeList(list, extents(recs))
		if want := refEncodeExtents(recs); !bytes.Equal(list, want) {
			t.Fatalf("encodeList wrote %x, want %x", list, want)
		}
	})
	t.Run("listSlots", func(t *testing.T) {
		recs := records(6)
		list := make([]byte, listSize(extents(recs)))
		for i, slot := range listSlots(list, extents(recs), 99) {
			copy(slot, recs[i].Data)
		}
		for i := range recs {
			recs[i].V = 99
		}
		if want := refEncodeExtents(recs); !bytes.Equal(list, want) {
			t.Fatalf("listSlots laid out %x, want %x", list, want)
		}
	})
	t.Run("trim", func(t *testing.T) {
		const k, m = 4, 2
		s, rec := newRecordedTSUE(t)
		loc := wire.StripeLoc{Nodes: []wire.NodeID{20, 21, 22, 23, 1, 30}} // parity 0 here
		sent := map[uint8][]ExtentRec{}
		for idx := uint8(0); idx < 3; idx++ {
			b := wire.BlockID{Ino: 4, Stripe: 2, Idx: idx}
			sent[idx] = records(4)
			handleOK(t, s, &wire.Msg{Kind: wire.KDeltaLogAdd, Block: b, Data: refEncodeExtents(sent[idx]),
				Idx: idx, K: k, M: m, Loc: loc, Flag: rolePrimary})
		}
		if err := s.Drain(context.Background(), 2, nil); err != nil {
			t.Fatal(err)
		}
		trims := 0
		for _, msg := range rec.msgs {
			if msg.Kind != wire.KDeltaLogAdd || msg.Flag != roleTrim {
				continue
			}
			trims++
			if want := refEncodeExtents(nonEmpty(sent[msg.Block.Idx])); !bytes.Equal(msg.Data, want) {
				t.Fatalf("trim of %v is %x, want %x", msg.Block, msg.Data, want)
			}
		}
		if trims != len(sent) {
			t.Fatalf("%d trims for %d source blocks", trims, len(sent))
		}
	})
	t.Run("replica fetch", func(t *testing.T) {
		s, _ := newRecordedTSUE(t)
		b := wire.BlockID{Ino: 4, Stripe: 0, Idx: 1}
		recs := records(5)
		for _, r := range recs {
			handleOK(t, s, &wire.Msg{Kind: wire.KDataLogReplica, Block: b, Off: r.Off, V: r.V, Data: r.Data})
		}
		resp := handle(s, &wire.Msg{Kind: wire.KReplicaFetch, Block: b})
		defer resp.Release()
		if want := refEncodeExtents(nonEmpty(recs)); !resp.OK() || !bytes.Equal(resp.Data, want) {
			t.Fatalf("replica fetch answered %x (%s), want %x", resp.Data, resp.Err, want)
		}
		if empty := handle(s, &wire.Msg{Kind: wire.KReplicaFetch, Block: b.WithIdx(0)}); !empty.OK() || len(empty.Data) != 0 {
			t.Fatalf("replica fetch of a block with no replicas answered %d bytes (%s)", len(empty.Data), empty.Err)
		}
	})
}

// FuzzDecodeExtents: an extent list from the wire never panics the
// decoder — a truncated or oversized header is an error — and whatever
// decodes re-encodes to the same bytes.
func FuzzDecodeExtents(f *testing.F) {
	f.Add([]byte{})
	f.Add(refEncodeExtents([]ExtentRec{{Off: 1, V: -3, Data: []byte("abcdef")}}))
	f.Add(refEncodeExtents([]ExtentRec{{Off: 0, Data: nil}, {Off: 1 << 30, V: 1 << 40, Data: bytes.Repeat([]byte{7}, 40)}}))
	good := refEncodeExtents([]ExtentRec{{Off: 9, Data: []byte("xyz")}})
	f.Add(good[:extentHeaderSize-1])
	f.Add(good[:len(good)-1])
	huge := bytes.Clone(good)
	huge[4], huge[5], huge[6], huge[7] = 0xFF, 0xFF, 0xFF, 0xFF
	f.Add(huge)
	f.Fuzz(func(t *testing.T, b []byte) {
		recs, err := DecodeExtents(b)
		if err != nil {
			return
		}
		if again := refEncodeExtents(recs); !bytes.Equal(again, b) {
			t.Fatalf("decode→encode changed %d bytes into %d", len(b), len(again))
		}
		back, err := DecodeExtents(refEncodeExtents(recs))
		if err != nil || len(back) != len(recs) {
			t.Fatalf("round trip: %d of %d records, err %v", len(back), len(recs), err)
		}
		for i := range recs {
			if back[i].Off != recs[i].Off || back[i].V != recs[i].V || !bytes.Equal(back[i].Data, recs[i].Data) {
				t.Fatalf("record %d differs after a round trip", i)
			}
		}
	})
}
