package update

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/blockstore"
	"repro/internal/erasure"
	"repro/internal/keylock"
	"repro/internal/logpool"
	"repro/internal/sim"
	"repro/internal/wire"
)

// parix is Speculative Partial Writes [Li et al., ATC'17]: the data OSD
// overwrites its block in place *without* the read-modify-write, and
// forwards the new data (not a delta) to every parity OSD's log. The
// first time a location is updated, the original bytes must also travel
// to the parity logs so the delta can be formed at recycle time — that
// extra round is PARIX's "2x network latency" penalty for updates without
// temporal locality (paper Fig. 1 and §2.2). Repeated updates of the same
// location need only the newest value (temporal locality exploited via an
// overwrite-mode index).
type parix struct {
	cfg Config
	logLayers

	// Data-OSD side: which byte ranges of each hosted data block have
	// already had their originals shipped since the last recycle.
	specMu sync.Mutex
	spec   map[wire.BlockID]*intervalSet

	// order holds one ordering lock per hosted data block, taken across
	// an update's speculation check, overwrite and forwarding.
	order keylock.Table[wire.BlockID]

	// Parity-OSD side: per source data block, the newest updated bytes
	// and the original bytes, both device-persisted as log appends.
	// loggedBytes tracks the log footprint; crossing the recycle
	// threshold forces an inline recycle — PARIX stores old AND new
	// values, so it exhausts its log space roughly twice as fast as a
	// delta-only log.
	logMu       sync.Mutex
	news        map[wire.BlockID]*logpool.Index
	olds        map[wire.BlockID]*logpool.Index
	loggedBytes int64
}

func newPARIX(cfg Config, env Env) (*parix, error) {
	if err := refuseDurable("parix", cfg); err != nil {
		return nil, err
	}
	p := &parix{
		cfg:  cfg,
		spec: make(map[wire.BlockID]*intervalSet),
		news: make(map[wire.BlockID]*logpool.Index),
		olds: make(map[wire.BlockID]*logpool.Index),
	}
	return p, p.declare("parix", cfg, env)
}

func (p *parix) Name() string { return "parix" }

func (p *parix) Update(ctx context.Context, msg *wire.Msg) (time.Duration, error) {
	store := p.env.Store()
	b := msg.Block
	end := msg.Off + uint32(len(msg.Data))

	// The ordering lock is held across speculation check, in-place
	// write AND forwarding: a same-block update must not overtake
	// another's origin shipment, or the parity log could recycle a new
	// value without its baseline (per-block ordered appends, §3.4).
	p.order.Lock(b)
	defer p.order.Unlock(b)

	// An update may reach a stripe before its full write: create the
	// block zero-filled, uncharged, so the gap reads see zero originals.
	if _, err := store.Fold(sim.ClassForegroundWrite, b, p.cfg.BlockSize, nil); err != nil {
		return 0, err
	}
	var lat time.Duration
	p.specMu.Lock()
	gaps := p.coverage(b).gaps(msg.Off, end)
	p.specMu.Unlock()
	// Read originals only for first-touched ranges, before overwriting.
	type origin struct {
		off  uint32
		data []byte
	}
	var origins []origin
	for _, g := range gaps {
		old := make([]byte, g.hi-g.lo) // kept: shipped as the original
		rc, err := store.ReadInto(sim.ClassForegroundWrite, b, g.lo, old, true)
		if err != nil {
			return 0, err
		}
		lat += rc
		origins = append(origins, origin{off: g.lo, data: old})
	}
	// In-place overwrite with NO read for already-speculated ranges —
	// PARIX's saving over PL/FO.
	wc, err := store.WriteRange(sim.ClassForegroundWrite, b, msg.Off, msg.Data, true, p.cfg.BlockSize)
	if err != nil {
		return 0, err
	}
	lat += wc
	// The block now holds the new bytes, so the originals read above are
	// the only copy left: mark the range covered. An update that failed
	// before this point left the block as it was, so its retry reads and
	// ships the originals again.
	p.specMu.Lock()
	p.coverage(b).addGaps(msg.Off, end)
	p.specMu.Unlock()

	k, m := int(msg.K), int(msg.M)
	targets := msg.Loc.Nodes[k : k+m]
	// First updates ship the originals ahead of the new data — the
	// extra round trip that doubles PARIX's latency for updates without
	// temporal locality. Originals must arrive first so a log recycle
	// can never observe a new value without its baseline.
	for _, o := range origins {
		oCost, err := fanout(ctx, p.env, targets, func(int) *wire.Msg {
			return &wire.Msg{
				Kind: wire.KParixLogAdd, Block: b, Off: o.off, Data: o.data,
				Idx: b.Idx, K: msg.K, M: msg.M, Loc: msg.Loc, Flag: 1, V: msg.V,
			}
		})
		if err != nil {
			return 0, err
		}
		lat += oCost
	}
	// Then the new data to every parity log.
	fanCost, err := fanout(ctx, p.env, targets, func(int) *wire.Msg {
		return &wire.Msg{
			Kind: wire.KParixLogAdd, Block: b, Off: msg.Off, Data: msg.Data,
			Idx: b.Idx, K: msg.K, M: msg.M, Loc: msg.Loc, Flag: 0, V: msg.V,
		}
	})
	if err != nil {
		return 0, err
	}
	return lat + fanCost, nil
}

// coverage returns the data block's speculation state, creating it
// empty. The caller holds specMu.
func (p *parix) coverage(b wire.BlockID) *intervalSet {
	cov := p.spec[b]
	if cov == nil {
		cov = &intervalSet{}
		p.spec[b] = cov
	}
	return cov
}

func (p *parix) Handle(ctx context.Context, msg *wire.Msg) *wire.Resp {
	switch msg.Kind {
	case wire.KParixLogAdd:
		p.logMu.Lock()
		tbl := p.news
		if msg.Flag == 1 {
			tbl = p.olds
		}
		bi := tbl[msg.Block]
		if bi == nil {
			bi = logpool.NewIndex(logpool.Overwrite)
			tbl[msg.Block] = bi
		}
		bi.Insert(msg.Off, msg.Data, time.Duration(msg.V))
		p.loggedBytes += int64(len(msg.Data)) + 32
		var cost time.Duration
		if p.cfg.RecycleThreshold > 0 && p.loggedBytes >= p.cfg.RecycleThreshold {
			// Log space exhausted: recycle inline while holding the log
			// lock (appends and recycling exclude each other), stalling
			// this append with the deferred-recycle bill. After the
			// fold, the recycled values become the next generation's
			// originals: the data OSDs' speculation state still says
			// "original shipped", and the parity block now embodies the
			// recycled value.
			news := p.news
			p.news = make(map[wire.BlockID]*logpool.Index)
			p.loggedBytes = 0
			cost += p.recycleMaps(news, p.olds)
			for b, ni := range news {
				oi := p.olds[b]
				if oi == nil {
					oi = logpool.NewIndex(logpool.Overwrite)
					p.olds[b] = oi
				}
				for _, e := range ni.Extents() {
					oi.Insert(e.Off, e.Data, e.V)
				}
			}
		}
		p.logMu.Unlock()
		// Sequential log append on the parity OSD's device.
		cost += p.env.Dev().Write(sim.ClassOther, int64(len(msg.Data))+32, false, false)
		return okResp(cost)
	default:
		return errResp(fmt.Errorf("parix: unexpected message %v", msg.Kind))
	}
}

// Drain recycles the parity logs: for every logged extent the delta is
// formed from (new XOR original) and folded into the parity block with a
// random read-modify-write, after a random re-read of the log records.
func (p *parix) Drain(ctx context.Context, phase int, dead []wire.NodeID) error {
	switch phase {
	case 1:
		// Reset speculation state: after recycle, first updates must
		// re-ship originals.
		p.specMu.Lock()
		p.spec = make(map[wire.BlockID]*intervalSet)
		p.specMu.Unlock()
		return nil
	case 3:
		return p.recycleAll()
	default:
		return nil
	}
}

func (p *parix) recycleAll() error {
	p.logMu.Lock()
	defer p.logMu.Unlock()
	news, olds := p.news, p.olds
	p.news = make(map[wire.BlockID]*logpool.Index)
	p.olds = make(map[wire.BlockID]*logpool.Index)
	p.loggedBytes = 0
	p.recycleMaps(news, olds)
	return nil
}

// recycleMaps folds a swapped-out generation of the parity log into the
// parity blocks this OSD hosts and returns the modeled cost.
func (p *parix) recycleMaps(news, olds map[wire.BlockID]*logpool.Index) time.Duration {
	store := p.env.Store()
	dev := p.env.Dev()
	var total time.Duration
	for dataBlock, ni := range news {
		place, ok := p.env.Placement(dataBlock)
		if !ok {
			continue
		}
		code, err := p.env.Code(place.K, place.M)
		if err != nil {
			continue
		}
		oi := olds[dataBlock]
		// This OSD hosts exactly one parity block of the stripe: find
		// which one by matching our node id in the placement.
		j := -1
		for jj := 0; jj < place.M; jj++ {
			if place.parityNode(jj) == p.env.ID() {
				j = jj
				break
			}
		}
		if j < 0 {
			continue
		}
		pb := parityBlock(dataBlock, place.K, j)
		extents := ni.Extents()
		coeff := code.Coeff(j, int(dataBlock.Idx))
		pds := make([]blockstore.Extent, len(extents))
		for i, e := range extents {
			// Random re-read of new+old log records.
			total += dev.Read(sim.ClassOther, int64(len(e.Data))+32, true)
			var orig []byte
			if oi != nil {
				if o, ok := oi.Lookup(e.Off, uint32(len(e.Data))); ok {
					orig = o
				}
			}
			if orig == nil {
				// Original never shipped (should not happen): treat
				// the range as zero-originated.
				orig = make([]byte, len(e.Data))
			} else {
				total += dev.Read(sim.ClassOther, int64(len(orig))+32, true)
			}
			delta := erasure.DataDelta(orig, e.Data)
			pds[i] = blockstore.Extent{Off: e.Off, Coeff: coeff, Data: delta}
		}
		// A recycle has no caller to report a refused fold to; it is
		// charged nothing.
		fc, _ := store.Fold(sim.ClassOther, pb, p.cfg.BlockSize, pds)
		total += fc
	}
	return total
}
