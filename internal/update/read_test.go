package update

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestReadFillsCallerBuffer: every method's Read returns the block's
// content, from the path its state calls for. The block is written in
// one page only, so on the durable engine most of it is absent pages
// that must read as zeros, and an update is still pending in the
// DataLog for TSUE and FL, so their reads of a range it touches fill a
// reply buffer and lay it over the base. Every other read of an
// in-memory block lends the block's own bytes. Under the pool debug
// mode the two are told apart at release: a reply buffer is poisoned,
// a lent view is not, and both count as outstanding until released.
func TestReadFillsCallerBuffer(t *testing.T) {
	const blockSize = 64 << 10
	backends := map[string]func(t *testing.T, dev *device.Device) *blockstore.Store{
		"mem": func(_ *testing.T, dev *device.Device) *blockstore.Store { return blockstore.New(dev) },
		"durable": func(t *testing.T, dev *device.Device) *blockstore.Store {
			eng, err := store.Open(t.TempDir(), store.Options{Frames: 16})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { eng.Close() })
			return blockstore.NewDurable(dev, eng)
		},
	}
	transport.SetPoolDebug(true)
	defer transport.SetPoolDebug(false)
	for _, name := range AllMethods {
		for be, open := range backends {
			t.Run(name+"/"+be, func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.BlockSize = blockSize
				dev := device.New("solo", device.ChameleonSSD())
				env := &soloEnv{store: open(t, dev), dev: dev}
				env.call = func(wire.NodeID, *wire.Msg) (*wire.Resp, error) { return &wire.Resp{}, nil }
				s, err := New(name, cfg, env)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()

				b := wire.BlockID{Ino: 1}
				want := make([]byte, blockSize)
				base := bytes.Repeat([]byte{0x5A}, 3000)
				if _, err := env.store.WriteRange(sim.ClassOther, b, 20<<10, base, true, blockSize); err != nil {
					t.Fatal(err)
				}
				copy(want[20<<10:], base)
				upd := &wire.Msg{
					Kind: wire.KUpdate, Block: b, Off: 21 << 10, Data: bytes.Repeat([]byte{0xC3}, 700),
					K: 2, M: 1, Loc: wire.StripeLoc{Nodes: []wire.NodeID{1, 2, 3}, Epoch: 1},
				}
				env.learn(upd)
				if _, err := s.Update(context.Background(), upd); err != nil {
					t.Fatal(err)
				}
				copy(want[upd.Off:], upd.Data)
				logged := name == "tsue" || name == "fl" // the update is still in the DataLog

				outstanding := transport.PoolDebugOutstanding()
				// The whole block, a range the update lies inside,
				// exactly the update's range (a log-cache hit for TSUE),
				// and a range the update misses.
				for _, r := range []struct {
					off, n  int
					pending bool
				}{{0, blockSize, true}, {20 << 10, 2 << 10, true}, {21 << 10, 700, true}, {40 << 10, 4 << 10, false}} {
					data, release, _, err := s.Read(b, uint32(r.off), r.n)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(data, want[r.off:r.off+r.n]) {
						t.Fatalf("read [%d,+%d) differs from the block's content", r.off, r.n)
					}
					release()
					lent := be == "mem" && !(logged && r.pending)
					if poisoned := bytes.Equal(data, bytes.Repeat([]byte{0xDB}, r.n)); poisoned == lent {
						t.Fatalf("read [%d,+%d): poisoned at release %v, want lent %v", r.off, r.n, poisoned, lent)
					}
				}
				if got := transport.PoolDebugOutstanding(); got != outstanding {
					t.Fatalf("reads left %d views or buffers outstanding", got-outstanding)
				}
			})
		}
	}
}
