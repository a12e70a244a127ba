package update

import (
	"context"
	"fmt"
	"time"

	"repro/internal/logpool"
	"repro/internal/sim"
	"repro/internal/wire"
)

// fl is Full Logging (paper §2.2, as used by GFS/Azure-style systems):
// updates append to a single large data-side log and the whole update
// path is deferred. The log merges with old data only when it fills (or
// recovery demands it); reads must overlay the log, and the single log
// structure makes appending and recycling mutually exclusive — the
// drawbacks the paper lists. FL is described in §2.2 but not charted; it
// is included for completeness.
type fl struct {
	cfg Config
	logLayers
	dataLog *logpool.PoolSet
}

func newFL(cfg Config, env Env) (*fl, error) {
	f := &fl{cfg: cfg}
	return f, f.declare("fl", cfg, env, layerSpec{
		name: "data", phase: 1, pools: 1,
		pool: logpool.Config{
			Mode:     logpool.NoMerge, // FL exploits no locality
			UnitSize: cfg.RecycleThreshold,
			MaxUnits: 1, // a single log: append and recycle exclude each other
		},
		workers: 1, block: f.recycleData, into: &f.dataLog,
		// The log must merge with the old data on reads (FL's read
		// penalty): base read plus overlay of all pending records.
		read: readOverlay,
	})
}

func (f *fl) Name() string { return "fl" }

func (f *fl) Update(ctx context.Context, msg *wire.Msg) (time.Duration, error) {
	cost := f.dataLog.Append(msg.Block, msg.Off, msg.Data, time.Duration(msg.V))
	return cost, nil
}

// recycleData merges logged records into the data block and pushes the
// resulting deltas straight into in-place parity updates (FL keeps no
// parity log of its own in this formulation).
func (f *fl) recycleData(be logpool.BlockExtents, sealV time.Duration) time.Duration {
	place, ok := f.env.Placement(be.Block)
	if !ok {
		return 0
	}
	// Every delta lands in one pooled buffer, which the fanouts borrow.
	// A recycle has no caller to report a store error to: the deltas of
	// the extents written before it still go out.
	size := 0
	for _, e := range be.Extents {
		size += len(e.Data)
	}
	buf := getDeltaBuf(size)
	defer putDeltaBuf(buf)
	deltas := make([][]byte, len(be.Extents))
	for i, rest := 0, *buf; i < len(deltas); i++ {
		n := len(be.Extents[i].Data)
		deltas[i], rest = rest[:n:n], rest[n:]
	}
	applied, cost, _ := f.env.Store().Overwrite(sim.ClassOther, be.Block, f.cfg.BlockSize, storeExtents(be.Extents), deltas)
	targets := place.Loc.Nodes[place.K : place.K+place.M]
	for i, e := range be.Extents[:applied] {
		fanCost, err := fanout(context.Background(), f.env, targets, func(j int) *wire.Msg {
			return &wire.Msg{
				Kind:  wire.KParityDelta,
				Block: parityBlock(be.Block, place.K, j),
				Off:   e.Off,
				Data:  deltas[i],
				Idx:   be.Block.Idx,
				K:     uint8(place.K),
				M:     uint8(place.M),
				V:     int64(sealV),
			}
		})
		if err == nil {
			cost += fanCost
		}
	}
	return cost
}

func (f *fl) Handle(ctx context.Context, msg *wire.Msg) *wire.Resp {
	switch msg.Kind {
	case wire.KParityDelta:
		cost, err := applyParityDeltaInPlace(f.env, f.cfg, msg)
		if err != nil {
			return errResp(err)
		}
		return okResp(cost)
	default:
		return errResp(fmt.Errorf("fl: unexpected message %v", msg.Kind))
	}
}
