package update

import (
	"context"
	"fmt"
	"time"

	"repro/internal/blockstore"
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
	// hosts. NoMerge: PL exploits no locality.
	parityLog *logpool.PoolSet
}

func newPL(cfg Config, env Env) (*pl, error) {
	p := &pl{cfg: cfg}
	return p, p.declare("pl", cfg, env, layerSpec{
		name: "parity", phase: 3, pools: 1,
		pool:    logpool.Config{Mode: logpool.NoMerge, UnitSize: cfg.RecycleThreshold, MaxUnits: 2},
		workers: cfg.Workers, block: p.recycleParity, into: &p.parityLog,
	})
}

func (p *pl) Name() string { return "pl" }

func (p *pl) Update(ctx context.Context, msg *wire.Msg) (time.Duration, error) {
	// In-place data-block read-modify-write (the expensive
	// write-after-read the paper highlights), then the data delta to
	// every parity OSD's parity log.
	return updateInPlace(ctx, p.env, p.cfg, msg, wire.KParityLogAdd)
}

func (p *pl) Handle(ctx context.Context, msg *wire.Msg) *wire.Resp {
	switch msg.Kind {
	case wire.KParityLogAdd:
		// Sequential append of each delta record; the source data index
		// rides in the first payload byte position via a tiny header so
		// recycle can recover the coefficient.
		return applyList(msg, func(r ExtentRec) time.Duration {
			return p.parityLog.Append(msg.Block, r.Off, encodeDeltaRecord(msg.Idx, r.Data), time.Duration(r.V))
		})
	default:
		return errResp(fmt.Errorf("pl: unexpected message %v", msg.Kind))
	}
}

// Delta records carry their source data-block index so the recycler can
// pick the right encoding coefficient. The byte layout is [src][delta...];
// NoMerge mode never splices records, so the prefix survives intact.
func encodeDeltaRecord(src uint8, delta []byte) []byte {
	rec := make([]byte, 1+len(delta))
	rec[0] = src
	copy(rec[1:], delta)
	return rec
}

func decodeDeltaRecord(rec []byte) (uint8, []byte) { return rec[0], rec[1:] }

// recycleParity replays the raw log for one parity block: each record is
// re-read from the on-disk log (random) and folded, scaled by its
// source's coefficient, into the parity block with a random
// read-modify-write.
func (p *pl) recycleParity(be logpool.BlockExtents, sealV time.Duration) time.Duration {
	place, ok := p.env.Placement(be.Block)
	if !ok {
		return 0
	}
	code, err := p.env.Code(place.K, place.M)
	if err != nil {
		return 0
	}
	j := int(be.Block.Idx) - place.K
	dev := p.env.Dev()
	var cost time.Duration
	pds := make([]blockstore.Extent, len(be.Extents))
	for i, e := range be.Extents {
		src, delta := decodeDeltaRecord(e.Data)
		// Random re-read of the log record from disk.
		cost += dev.Read(sim.ClassOther, int64(len(e.Data))+32, true)
		pds[i] = blockstore.Extent{Off: e.Off, Coeff: code.Coeff(j, int(src)), Data: delta}
	}
	// A recycle has no caller to report a refused fold to; it is
	// charged nothing.
	fc, _ := p.env.Store().Fold(sim.ClassOther, be.Block, p.cfg.BlockSize, pds)
	return cost + fc
}
