package update

import (
	"context"
	"fmt"
	"time"

	"repro/internal/logpool"
	"repro/internal/sim"
	"repro/internal/wire"
)

// pl is Parity Logging [Stodolsky et al., ISCA'93]: data blocks update in
// place (a random read-modify-write to compute the data delta); the
// resulting parity deltas are appended sequentially to a per-parity-OSD
// parity log. Log recycling is deferred until the log reaches a capacity
// threshold (or recovery forces it), and replays the raw, unmerged log
// with random access — the recycle inefficiency the paper calls out.
type pl struct {
	cfg Config
	logLayers
	// parityLog holds incoming parity deltas for parity blocks this OSD
	// hosts.
	parityLog *logpool.PoolSet
}

func newPL(cfg Config, env Env) (*pl, error) {
	p := &pl{cfg: cfg}
	return p, p.declare("pl", cfg, env, rawParityLog(cfg, &p.logLayers, &p.parityLog))
}

func (p *pl) Name() string { return "pl" }

func (p *pl) Update(ctx context.Context, msg *wire.Msg) (time.Duration, error) {
	// In-place data-block read-modify-write (the expensive
	// write-after-read the paper highlights), then each parity's delta
	// to its parity OSD's parity log.
	return updateInPlace(ctx, p.env, p.cfg, msg, wire.KParityLogAdd)
}

func (p *pl) Handle(ctx context.Context, msg *wire.Msg) *wire.Resp {
	switch msg.Kind {
	case wire.KParityLogAdd:
		return appendList(p.parityLog, msg)
	default:
		return errResp(fmt.Errorf("pl: unexpected message %v", msg.Kind))
	}
}

// rawParityLog declares the parity log PL and CoRD keep for the parity
// blocks an OSD hosts, into *into: parity deltas appended sequentially,
// never merged (NoMerge: no locality), and recycled only once the log
// reaches cfg.RecycleThreshold or a drain forces it. Recycling replays
// the raw log: each record is re-read from the on-disk log (random) and
// folded into the parity block with a random read-modify-write.
func rawParityLog(cfg Config, l *logLayers, into **logpool.PoolSet) layerSpec {
	return layerSpec{
		name: "parity", phase: 3, pools: 1,
		pool:    logpool.Config{Mode: logpool.NoMerge, UnitSize: cfg.RecycleThreshold, MaxUnits: 2},
		workers: cfg.Workers, into: into,
		block: func(be logpool.BlockExtents, _ time.Duration) time.Duration {
			var cost time.Duration
			for _, e := range be.Extents {
				cost += l.env.Dev().Read(sim.ClassOther, int64(len(e.Data))+32, true)
			}
			// A recycle has no caller to report a refused fold to; it
			// is charged nothing.
			fc, _ := l.env.Store().Fold(sim.ClassOther, be.Block, cfg.BlockSize, storeExtents(be.Extents))
			return cost + fc
		},
	}
}
