package update

import (
	"bytes"
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/device"
	"repro/internal/erasure"
	"repro/internal/gf256"
	"repro/internal/wire"
)

// TestParityLogsHoldParityDeltas: every parity log holds parity deltas,
// scaled by their sender. One method's instances, one per node of an
// RS(3,3) stripe, take three updates to two data blocks of a stripe
// that was never written, then drain. Every KParityLogAdd list a parity
// block is sent is decoded and XORed into an accumulator: PL and PLR
// send α_j·Δ per update (Eq. 2), CoRD and TSUE the Eq. 5 sums, so for
// every method each accumulator ends as the parity block of the written
// data. So does each parity OSD's block once its log folded at Coeff 1.
func TestParityLogsHoldParityDeltas(t *testing.T) {
	const k, m, blockSize = 3, 3, 16 << 10
	code := erasure.MustNew(k, m, erasure.Vandermonde)
	loc := wire.StripeLoc{Nodes: []wire.NodeID{1, 2, 3, 4, 5, 6}}
	stripe := wire.BlockID{Ino: 3, Stripe: 1}
	rng := rand.New(rand.NewSource(43))
	type upd struct {
		idx  uint8
		off  uint32
		data []byte
	}
	var upds []upd
	for _, u := range []struct {
		idx  uint8
		off  uint32
		size int
	}{{1, 100, 3000}, {2, 2000, 4000}, {1, 1500, 1000}} {
		data := make([]byte, u.size)
		rng.Read(data)
		upds = append(upds, upd{u.idx, u.off, data})
	}
	// Data blocks 1 and 2 meet a coefficient other than 1, or sending
	// the bare delta would pass too: a Vandermonde code's first parity
	// row can be all ones.
	if code.Coeff(1, 1) == 1 && code.Coeff(1, 2) == 1 && code.Coeff(2, 1) == 1 && code.Coeff(2, 2) == 1 {
		t.Fatal("every coefficient of the updated blocks is 1")
	}
	// The stripe's content after the updates, and its parity.
	data := make([][]byte, k)
	for i := range data {
		data[i] = make([]byte, blockSize)
	}
	for _, u := range upds {
		copy(data[u.idx][u.off:], u.data)
	}
	want, err := code.Encode(data)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name, method string
		deltaLog     bool // TSUE's O5
	}{
		{"pl", "pl", true},
		{"plr", "plr", true},
		{"cord", "cord", true},
		{"tsue", "tsue", true},
		{"tsue-o5-off", "tsue", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			got := make([][]byte, m) // every parity delta parity j was sent, XORed
			for j := range got {
				got[j] = make([]byte, blockSize)
			}
			nodes := map[wire.NodeID]Strategy{}
			envs := map[wire.NodeID]*nodeEnv{}
			for _, id := range loc.Nodes {
				cfg := DefaultConfig()
				cfg.BlockSize = blockSize
				cfg.Pools = 1
				cfg.UseDeltaLog = tc.deltaLog
				dev := device.New("osd", device.ChameleonSSD())
				env := &nodeEnv{id: id, soloEnv: soloEnv{store: blockstore.New(dev), dev: dev}}
				env.call = func(to wire.NodeID, msg *wire.Msg) (*wire.Resp, error) {
					if msg.Kind == wire.KParityLogAdd {
						recs, err := DecodeExtents(msg.Data)
						if err != nil {
							return nil, err
						}
						acc := got[int(msg.Block.Idx)-k]
						mu.Lock()
						for _, r := range recs {
							gf256.XorSlice(acc[r.Off:][:len(r.Data)], r.Data)
						}
						mu.Unlock()
					}
					envs[to].learn(msg)
					return nodes[to].Handle(context.Background(), msg), nil
				}
				s, err := New(tc.method, cfg, env)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(s.Close)
				nodes[id], envs[id] = s, env
			}
			ctx := context.Background()
			for _, u := range upds {
				msg := &wire.Msg{Kind: wire.KUpdate, Block: stripe.WithIdx(u.idx), Off: u.off, Data: u.data,
					K: k, M: m, Loc: loc, V: 1}
				node := loc.Nodes[u.idx]
				envs[node].learn(msg)
				if _, err := nodes[node].Update(ctx, msg); err != nil {
					t.Fatal(err)
				}
			}
			for phase := 1; phase <= DrainPhases; phase++ {
				for _, id := range loc.Nodes {
					if err := nodes[id].Drain(ctx, phase, nil); err != nil {
						t.Fatal(err)
					}
				}
			}
			for j := range want {
				if !bytes.Equal(got[j], want[j]) {
					t.Errorf("the lists sent to parity %d do not XOR to its parity delta", j)
				}
				pb := parityBlock(stripe, k, j)
				if folded, _ := envs[loc.Nodes[k+j]].store.Snapshot(pb); !bytes.Equal(folded, want[j]) {
					t.Errorf("parity %d's fold of its log left the wrong block", j)
				}
			}
		})
	}
}
