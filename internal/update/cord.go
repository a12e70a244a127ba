package update

import (
	"context"
	"fmt"
	"time"

	"repro/internal/logpool"
	"repro/internal/wire"
)

// cord is CoRD [Zhou et al., SC'24]: a combination of RAID- and
// delta-based updating whose goal is minimal update traffic. The data OSD
// computes the data delta with an in-place read-modify-write and sends it
// once to the stripe's *collector* (the OSD hosting the first parity
// block). The collector aggregates deltas from all data blocks of the
// stripe in a buffer log, merges same-address deltas across blocks
// (Equation 5), and forwards the much smaller merged parity deltas to
// each parity OSD's log. The collector's single fixed-size buffer log
// takes no concurrency into account — recycling it stalls appends, the
// bottleneck the paper observes.
type cord struct {
	cfg Config
	logLayers

	// collector buffer log: XOR-folding per source data block, single
	// pool, single unit — the serialization point.
	collector *logpool.PoolSet

	// parity log of merged deltas for parity blocks hosted here: PL's
	// raw parity log.
	parityLog *logpool.PoolSet
}

func newCoRD(cfg Config, env Env) (*cord, error) {
	c := &cord{cfg: cfg}
	return c, c.declare("cord", cfg, env,
		layerSpec{
			name: "collector", phase: 2, pools: 1,
			pool: logpool.Config{
				Mode:     logpool.XorFold,
				UnitSize: cfg.CollectorUnitSize,
				MaxUnits: 1, // fixed-size single buffer: append and recycle exclude
			},
			unit: c.recycleCollector, into: &c.collector,
		},
		rawParityLog(cfg, &c.logLayers, &c.parityLog))
}

func (c *cord) Name() string { return "cord" }

func (c *cord) Update(ctx context.Context, msg *wire.Msg) (time.Duration, error) {
	b := msg.Block
	buf := getDeltaBuf(len(msg.Data))
	defer putDeltaBuf(buf)
	delta := *buf
	cost, err := overwriteMsg(c.env, c.cfg, msg, delta)
	if err != nil {
		return 0, err
	}

	// One hop: the delta goes to the stripe collector only.
	k := int(msg.K)
	collectorNode := msg.Loc.Nodes[k] // first parity OSD
	resp, err := c.env.Call(ctx, collectorNode, &wire.Msg{
		Kind: wire.KCordCollect, Block: b, Off: msg.Off, Data: delta,
		Idx: b.Idx, K: msg.K, M: msg.M, Loc: msg.Loc, V: msg.V,
	})
	if err != nil {
		return 0, err
	}
	defer resp.Release()
	if err := resp.Error(); err != nil {
		return 0, err
	}
	return cost + resp.Cost, nil
}

func (c *cord) Handle(ctx context.Context, msg *wire.Msg) *wire.Resp {
	switch msg.Kind {
	case wire.KCordCollect:
		cost := c.collector.Append(msg.Block, msg.Off, msg.Data, time.Duration(msg.V))
		return okResp(cost)
	case wire.KParityLogAdd:
		return appendList(c.parityLog, msg)
	default:
		return errResp(fmt.Errorf("cord: unexpected message %v", msg.Kind))
	}
}

// recycleCollector merges a collector unit stripe by stripe: the
// per-block deltas become per-parity deltas (Eq. 5) before forwarding.
// The collector is single-threaded, so its wall time is the full cost.
func (c *cord) recycleCollector(blocks []logpool.BlockExtents) (cost, wall time.Duration) {
	for _, sw := range groupByStripe(c.env, blocks) {
		code, err := c.env.Code(sw.place.K, sw.place.M)
		if err != nil {
			continue
		}
		// Eq. 5: one delta list per parity, the stripe's M in one batch.
		calls := parityAppends(sw.place, sw.anyB, parityDeltaLists(code, sw.blocks), false, nil)
		sent, _, _ := deliver(context.Background(), c.env, calls)
		cost += sent
	}
	return cost, cost
}
