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
	cfg      Config
	env      Env
	stripes  *stripeTable
	dataLog  *logpool.Pool
	recycler *logpool.Recycler
}

func newFL(cfg Config, env Env) (*fl, error) {
	f := &fl{cfg: cfg, env: env, stripes: newStripeTable()}
	pool, err := logpool.NewPool(logpool.Config{
		Name:     fmt.Sprintf("fl/osd%d", env.ID()),
		Mode:     logpool.NoMerge, // FL exploits no locality
		UnitSize: cfg.RecycleThreshold,
		MaxUnits: 1, // a single log: append and recycle exclude each other
		Device:   env.Dev(),
	})
	if err != nil {
		return nil, err
	}
	f.dataLog = pool
	f.recycler = logpool.StartRecycler(pool, 1, f.recycleData)
	return f, nil
}

func (f *fl) Name() string { return "fl" }

// RefreshPlacement adopts a newer placement epoch (epoch broadcast).
func (f *fl) RefreshPlacement(msg *wire.Msg) { f.stripes.remember(msg) }

func (f *fl) Update(ctx context.Context, msg *wire.Msg) (time.Duration, error) {
	f.stripes.remember(msg)
	cost := f.dataLog.Append(msg.Block, msg.Off, msg.Data, time.Duration(msg.V))
	return cost, nil
}

// recycleData merges logged records into the data block and pushes the
// resulting deltas straight into in-place parity updates (FL keeps no
// parity log of its own in this formulation).
func (f *fl) recycleData(be logpool.BlockExtents, sealV time.Duration) time.Duration {
	si, ok := f.stripes.get(be.Block)
	if !ok {
		return 0
	}
	// A recycle has no caller to report a store error to: the deltas of
	// the extents written before it still go out.
	deltas, cost, _ := f.env.Store().Overwrite(sim.ClassOther, be.Block, f.cfg.BlockSize, storeExtents(be.Extents))
	targets := si.Loc.Nodes[si.K : si.K+si.M]
	for _, d := range deltas {
		fanCost, err := fanout(context.Background(), f.env, targets, func(to wire.NodeID) *wire.Msg {
			j := indexOfNode(si.Loc.Nodes[si.K:], to)
			return &wire.Msg{
				Kind:  wire.KParityDelta,
				Block: parityBlock(be.Block, si.K, j),
				Off:   d.Off,
				Data:  d.Data,
				Idx:   be.Block.Idx,
				K:     uint8(si.K),
				M:     uint8(si.M),
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

func (f *fl) Read(b wire.BlockID, off uint32, size int) ([]byte, time.Duration, error) {
	// The log must merge with the old data on reads (FL's read penalty):
	// base read plus overlay of all pending records.
	return readThrough(f.dataLog, b, off, func() ([]byte, time.Duration, error) {
		return f.env.Store().ReadRange(sim.ClassForegroundRead, b, off, size, true)
	})
}

func (f *fl) Drain(ctx context.Context, phase int, dead []wire.NodeID) error {
	if phase == 1 {
		f.dataLog.Drain(0)
	}
	return nil
}

func (f *fl) Close() {
	f.dataLog.Close()
	f.recycler.Wait()
}

// Settle waits for any sealed data-log units to recycle.
func (f *fl) Settle() { f.dataLog.WaitIdle() }
