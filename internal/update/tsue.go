package update

import (
	"context"
	"crypto/subtle"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/logpool"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// tsue is the paper's contribution: a two-stage update method built on a
// three-layer log (DataLog -> DeltaLog -> ParityLog).
//
// Front end (synchronous, §3.1.1): an update is appended sequentially to
// the local DataLog and replicated to peer OSD(s); the client is acked.
// No read-modify-write sits on the critical path.
//
// Back end (asynchronous, real-time, §3.1.2):
//
//   - DataLog recycle merges same/adjacent updates via the two-level
//     index, performs ONE read-modify-write per merged extent to compute
//     the data delta and update the data block, and forwards the delta to
//     the DeltaLog of the stripe's first parity OSD (with a copy to the
//     second parity OSD for reliability, §4.1).
//   - DeltaLog recycle folds same-address deltas (Eq. 3), concatenates
//     adjacent ones, merges deltas of different data blocks of the same
//     stripe into per-parity deltas (Eq. 5), and appends those to each
//     parity OSD's ParityLog; the parity update is thereby reduced from a
//     matrix multiplication to a single XOR.
//   - ParityLog recycle XORs merged parity deltas into the parity block
//     in place.
//
// Feature gates (cfg.DataLogLocality = O1, ParityLogLocality = O2,
// UseLogPool = O3, Pools = O4, UseDeltaLog = O5) reproduce the Fig. 7
// contribution breakdown.
type tsue struct {
	cfg Config
	logLayers

	dataLogs   *logpool.PoolSet
	deltaLogs  *logpool.PoolSet // nil when UseDeltaLog is false
	parityLogs *logpool.PoolSet

	// deltaCopy holds the second-parity-OSD copies of data deltas not
	// yet trimmed by their primary (recovery source only: promoted when
	// the primary dies, never recycled).
	copyMu    sync.Mutex
	deltaCopy map[wire.BlockID]*logpool.Index

	// replicas holds DataLog replica content for blocks whose primary
	// DataLog lives on a peer OSD. Persisted to SSD only (device-priced,
	// no pool/index machinery, §4.1); retained so a failed primary's
	// pending updates can be replayed at recovery (§4.2). Replica
	// records store absolute data, so replaying already-recycled
	// records is idempotent (their delta against the reconstructed
	// block is zero).
	repMu    sync.Mutex
	replicas map[wire.BlockID]*logpool.Index

	// repPersist durably backs the replica index (nil without a data
	// dir). Replica records never fold: they live until the data dir is
	// recreated, and replaying them is idempotent.
	repPersist logpool.Persist
}

func newTSUE(cfg Config, env Env) (*tsue, error) {
	t := &tsue{
		cfg:       cfg,
		deltaCopy: make(map[wire.BlockID]*logpool.Index),
		replicas:  make(map[wire.BlockID]*logpool.Index),
	}

	pools := cfg.Pools
	unitSize, maxUnits := cfg.UnitSize, cfg.MaxUnits
	if !cfg.UseLogPool {
		// O3 disabled: one small log buffer per layer instead of the
		// FIFO pool — append and recycle serialize, and the merging
		// window shrinks to a fraction of a pooled unit.
		pools, maxUnits = 1, 1
		unitSize = cfg.UnitSize / 8
		if unitSize < 16<<10 {
			unitSize = 16 << 10
		}
	}
	pool := func(mode logpool.MergeMode, merge bool) logpool.Config {
		if !merge {
			mode = logpool.NoMerge
		}
		return logpool.Config{Mode: mode, UnitSize: unitSize, MaxUnits: maxUnits}
	}
	// DataLog appends sit on the client ack path, so their device
	// charges are foreground writes; delta/parity log appends arrive on
	// asynchronous recycle forwards and stay background-classified.
	data := pool(logpool.Overwrite, cfg.DataLogLocality)
	data.Class = sim.ClassForegroundWrite
	// The DataLog doubles as a read cache (§3.3.3).
	layers := []layerSpec{{
		name: "data", phase: 1, pools: pools, pool: data,
		workers: cfg.Workers, block: t.recycleData, into: &t.dataLogs,
		read: readCache,
	}}
	if cfg.UseDeltaLog {
		// The DeltaLog merges across the blocks of a stripe (Eq. 5), so
		// it recycles a whole unit at a time.
		layers = append(layers, layerSpec{
			name: "delta", phase: 2, pools: pools, pool: pool(logpool.XorFold, true),
			unit: t.recycleDeltaUnit, into: &t.deltaLogs,
		})
	}
	layers = append(layers,
		layerSpec{
			name: "parity", phase: 3, pools: pools, pool: pool(logpool.XorFold, cfg.ParityLogLocality),
			workers: cfg.Workers, block: t.recycleParity, into: &t.parityLogs,
		},
		// Replica records are durably logged under one never-folded
		// generation: they are the recovery source for a failed
		// primary's pending updates and are absolute-data (idempotent to
		// replay).
		layerSpec{name: "replica", persist: &t.repPersist, replay: t.insertReplica},
	)
	return t, t.declare("tsue", cfg, env, layers...)
}

// Name returns "tsue".
func (t *tsue) Name() string { return "tsue" }

// Update is the synchronous front end: sequential DataLog append plus
// replica forwarding — the whole client-perceived path (§3.1.1).
func (t *tsue) Update(ctx context.Context, msg *wire.Msg) (time.Duration, error) {
	v := time.Duration(msg.V)
	lat := t.dataLogs.Append(msg.Block, msg.Off, msg.Data, v)

	// Replicate the log record to the next OSD(s) of the stripe.
	if targets := t.replicaHolders(msg.Loc, msg.Block.Idx); len(targets) > 0 {
		repCost, err := fanout(ctx, t.env, targets, func(int) *wire.Msg {
			return &wire.Msg{Kind: wire.KDataLogReplica, Block: msg.Block, Off: msg.Off, Data: msg.Data, V: msg.V}
		})
		if err != nil {
			return 0, err
		}
		lat += repCost
	}
	return lat, nil
}

// replicaHolders names the nodes that hold the DataLog replicas of the
// block at index idx of a stripe placed at loc: the next
// cfg.DataLogReplicas nodes of the stripe after the block's own,
// wrapping around, and never the block's own node (§4.1).
func (t *tsue) replicaHolders(loc wire.StripeLoc, idx uint8) (holders []wire.NodeID) {
	for r, n := 1, len(loc.Nodes); r <= t.cfg.DataLogReplicas && r < n; r++ {
		holders = append(holders, loc.Nodes[(int(idx)+r)%n])
	}
	return holders
}

// recycleData is the DataLog recycle function: one read-modify-write per
// merged extent, then the block's data deltas go out as one extent list
// per target: to the DeltaLog layer, or, with O5 disabled, to every
// ParityLog in one batch.
func (t *tsue) recycleData(be logpool.BlockExtents, sealV time.Duration) time.Duration {
	place, ok := t.env.Placement(be.Block)
	if !ok {
		return 0
	}
	// The overwrite writes each delta straight into its record of the
	// extent list that carries it. A recycle has no caller to report a
	// store error to: the deltas of the extents written before it still
	// go out.
	buf := getDeltaBuf(listSize(be.Extents))
	defer putDeltaBuf(buf)
	outs := listSlots(*buf, be.Extents, int64(sealV))
	applied, cost, _ := t.env.Store().Overwrite(sim.ClassOther, be.Block, t.cfg.BlockSize, storeExtents(be.Extents), outs)
	if place.M == 0 || applied == 0 {
		return cost
	}
	code, err := t.env.Code(place.K, place.M)
	if err != nil {
		return cost
	}
	list := (*buf)[:listSize(be.Extents[:applied])]
	ctx := context.Background()
	if t.cfg.UseDeltaLog {
		// Primary delta to parity OSD 1, copy to parity OSD 2. The copy
		// goes first: the primary's trim cancels its copy, so the
		// primary takes only deltas whose copy is in place.
		payload, flag := pack(list, t.cfg.CompressDeltas)
		add := func(role uint8) []*transport.BatchCall {
			return []*transport.BatchCall{{To: place.parityNode(int(role)), Msg: &wire.Msg{
				Kind: wire.KDeltaLogAdd, Block: be.Block, Data: payload,
				K: uint8(place.K), M: uint8(place.M), Loc: place.Loc, Flag: role | flag,
			}}}
		}
		var copied time.Duration
		if place.M >= 2 {
			copied, _, err = deliver(ctx, t.env, add(roleCopy))
		}
		if err == nil {
			sent, _, _ := deliver(ctx, t.env, add(rolePrimary))
			return cost + copied + sent
		}
		// The copy was refused: bypass the DeltaLog as O5-off does, so
		// no trim can cancel a copy the holder does not have.
	}
	// Per-parity deltas straight to the parity logs: the list scaled by
	// each parity's coefficient, in one pooled buffer.
	lbuf, lists := getLists(place.M, len(list))
	defer putDeltaBuf(lbuf)
	scaleLists(code, int(be.Block.Idx), list, lists)
	sent, _, _ := deliver(ctx, t.env, parityAppends(place, be.Block, lists, false, nil))
	return cost + sent
}

// recycleDeltaUnit merges a sealed DeltaLog unit stripe by stripe: Eq. 3
// folding already happened in the XOR index; here each stripe's M
// parity deltas (Eq. 5) leave as one batch of M extent lists, and once
// the parity logs have acknowledged them, each source block's copy at
// the second parity OSD is trimmed by one list of the recycled deltas.
func (t *tsue) recycleDeltaUnit(blocks []logpool.BlockExtents) (cost, wall time.Duration) {
	// Stripes merge independently; model wall time as the largest
	// per-stripe cost (stripes recycle in parallel across workers).
	for _, sw := range groupByStripe(t.env, blocks) {
		code, err := t.env.Code(sw.place.K, sw.place.M)
		if err != nil {
			continue
		}
		calls := parityAppends(sw.place, sw.anyB, parityDeltaLists(code, sw.blocks), t.cfg.CompressDeltas, nil)
		stripeCost, _, _ := deliver(context.Background(), t.env, calls)
		cost += stripeCost
		wall = max(wall, stripeCost)
		// Trim the copies at the second parity OSD: the recycled deltas
		// are now durable in the ParityLogs, so their copies must stop
		// contributing to a future promotion. The trim carries the
		// recycled deltas themselves and the holder XOR-inserts them,
		// cancelling exactly what this unit recycled — a newer copy of
		// the same range survives, in whichever order copy and trim
		// arrive (§4.2).
		if sw.place.M < 2 {
			continue
		}
		// Each source block's list is written straight from the unit's
		// extents into one pooled buffer, which the trims borrow until
		// deliver returns.
		size := 0
		for _, exts := range sw.blocks {
			size += listSize(exts)
		}
		buf := getDeltaBuf(size)
		calls = calls[:0]
		pos := 0
		for src, exts := range sw.blocks {
			list := (*buf)[pos : pos+listSize(exts)]
			pos += len(list)
			encodeList(list, exts)
			payload, flag := pack(list, t.cfg.CompressDeltas)
			calls = append(calls, &transport.BatchCall{To: sw.place.parityNode(1), Msg: &wire.Msg{
				Kind: wire.KDeltaLogAdd, Block: sw.anyB.WithIdx(uint8(src)), Data: payload, Flag: roleTrim | flag,
			}})
		}
		trimCost, _, _ := deliver(context.Background(), t.env, calls)
		putDeltaBuf(buf)
		cost += trimCost
	}
	return cost, wall
}

// recycleParity folds merged parity deltas into the parity block: one
// read-modify-write per merged extent — by now repeated and adjacent
// updates have collapsed, so these are few and large.
func (t *tsue) recycleParity(be logpool.BlockExtents, sealV time.Duration) time.Duration {
	// A recycle has no caller to report a refused fold to; it is
	// charged nothing.
	cost, _ := t.env.Store().Fold(sim.ClassOther, be.Block, t.cfg.BlockSize, storeExtents(be.Extents))
	return cost
}

// KDeltaLogAdd roles, in the low bits of Msg.Flag. A primary and a copy
// go to the parity OSD of their own number.
const (
	rolePrimary = 0 // append to the DeltaLog of the stripe's first parity OSD
	roleCopy    = 1 // the copy at the second parity OSD (§4.1)
	roleTrim    = 2 // cancel copies whose primary deltas were recycled
)

// Handle serves TSUE's peer messages: a DataLog replica record to
// keep, a recovery's fetch of a block's replica records, a delta for
// the DeltaLog or its copy or trim at the second parity OSD, and a
// parity delta list for the ParityLog.
func (t *tsue) Handle(ctx context.Context, msg *wire.Msg) *wire.Resp {
	switch msg.Kind {
	case wire.KDataLogReplica:
		// Replica is persisted to SSD (§4.1) and retained so the
		// primary's pending updates survive its failure (§4.2).
		t.insertReplica(msg.Block, msg.Off, msg.V, msg.Data)
		cost := t.env.Dev().Write(sim.ClassForegroundWrite, int64(len(msg.Data))+32, false, false)
		return okResp(cost)
	case wire.KReplicaFetch:
		// Recovery replay: answer with the block's replica records as
		// one extent list, priced as a sequential log read. The list is
		// written into a reply buffer before inserts resume.
		t.repMu.Lock()
		var exts []logpool.Extent
		if ri := t.replicas[msg.Block]; ri != nil {
			exts = ri.Extents()
		}
		if len(exts) == 0 {
			t.repMu.Unlock()
			return &wire.Resp{}
		}
		list, release := transport.ReplyBuf(listSize(exts))
		encodeList(list, exts)
		t.repMu.Unlock()
		resp := &wire.Resp{Data: list, Cost: t.env.Dev().Read(sim.ClassOther, int64(len(list)), false)}
		resp.AttachRelease(release)
		return resp
	case wire.KDeltaLogAdd:
		if msg.Flag&^deltaCompressFlag != rolePrimary {
			return t.holdCopy(msg)
		}
		if t.deltaLogs == nil {
			return errResp(fmt.Errorf("tsue: delta log disabled on node %d", t.env.ID()))
		}
		return appendList(t.deltaLogs, msg)
	case wire.KParityLogAdd:
		return appendList(t.parityLogs, msg)
	default:
		return errResp(fmt.Errorf("tsue: unexpected message %v", msg.Kind))
	}
}

// holdCopy serves a copy or a trim at the second parity OSD. A copy for
// reliability is indexed for recovery, never recycled. A trim
// XOR-inserts the deltas its primary recycled, and XOR is its own
// inverse: it cancels exactly those. A copy is acknowledged before its
// primary is sent, so a trim for a block with no copies (the holder
// restarted since) has nothing to cancel.
func (t *tsue) holdCopy(msg *wire.Msg) *wire.Resp {
	recs, err := unpackList(msg)
	if err != nil {
		return errResp(err)
	}
	role := msg.Flag &^ deltaCompressFlag
	t.copyMu.Lock()
	ci := t.deltaCopy[msg.Block]
	if ci == nil && role == roleCopy {
		ci = logpool.NewIndex(logpool.XorFold)
		t.deltaCopy[msg.Block] = ci
	}
	if ci != nil {
		for _, r := range recs {
			ci.Insert(r.Off, r.Data, time.Duration(r.V))
		}
	}
	t.copyMu.Unlock()
	if role == roleTrim {
		return okResp(0) // a local cancellation: no device write
	}
	// One log write per record of its bytes on the wire (its share of a
	// deflated list), plus a 32-byte record header.
	raw := 0
	for _, r := range recs {
		raw += extentHeaderSize + len(r.Data)
	}
	var cost time.Duration
	for _, r := range recs {
		cost += t.env.Dev().Write(sim.ClassOther, int64(len(r.Data)*len(msg.Data)/raw)+32, false, false)
	}
	return okResp(cost)
}

// insertReplica indexes a DataLog replica record and logs it durably.
func (t *tsue) insertReplica(block wire.BlockID, off uint32, v int64, data []byte) {
	t.repMu.Lock()
	ri := t.replicas[block]
	if ri == nil {
		ri = logpool.NewIndex(logpool.Overwrite)
		t.replicas[block] = ri
	}
	ri.Insert(off, data, time.Duration(v))
	t.repMu.Unlock()
	if t.repPersist != nil {
		t.repPersist.AppendEntry(0, block, off, v, data)
	}
}

// Drain drains the phase's layers, then tends the delta copies this
// node holds for other primaries.
func (t *tsue) Drain(ctx context.Context, phase int, dead []wire.NodeID) error {
	t.drain(phase)
	switch {
	case phase == 2 && len(dead) > 0:
		// Promote delta copies whose primary DeltaLog died with its OSD.
		return t.promoteCopies(ctx, dead)
	case phase == 3:
		// Every node's phase-2 trims have landed: a cluster-wide drain
		// leaves the copies of live primaries all zero.
		t.pruneCopies()
	}
	return nil
}

// promoteCopies recycles delta copies for stripes whose first parity OSD
// (the primary DeltaLog host) is dead, sending each copied block's
// parity deltas to every surviving parity log as one extent list, and
// then cancels what it promoted: the dead primary will never trim it
// (§4.2 log reliability).
func (t *tsue) promoteCopies(ctx context.Context, dead []wire.NodeID) error {
	// Snapshot under the lock: copy and trim inserts keep arriving and
	// XOR-fold into the copies' extents in place.
	type promotion struct {
		b     wire.BlockID
		place Placement
		exts  []logpool.Extent
	}
	var work []promotion
	t.copyMu.Lock()
	for b, ci := range t.deltaCopy {
		place, ok := t.env.Placement(b)
		if !ok || !slices.Contains(dead, place.parityNode(0)) || zeroIndex(ci) {
			continue
		}
		exts := slices.Clone(ci.Extents())
		for i := range exts {
			exts[i].Data = slices.Clone(exts[i].Data)
		}
		work = append(work, promotion{b: b, place: place, exts: exts})
	}
	t.copyMu.Unlock()
	for _, w := range work {
		b, place := w.b, w.place
		code, err := t.env.Code(place.K, place.M)
		if err != nil {
			return err
		}
		lists := parityDeltaLists(code, map[int][]logpool.Extent{int(b.Idx): w.exts})
		calls := parityAppends(place, b, lists, false, func(n wire.NodeID) bool { return slices.Contains(dead, n) })
		if _, _, err := deliver(ctx, t.env, calls); err != nil {
			return err
		}
		// Cancel what was promoted, as a trim would: a copy that
		// arrived since the snapshot stays for the next promotion.
		t.copyMu.Lock()
		if ci := t.deltaCopy[b]; ci != nil {
			for _, e := range w.exts {
				ci.Insert(e.Off, e.Data, e.V)
			}
		}
		t.copyMu.Unlock()
	}
	return nil
}

// ReplayReplicas lays the DataLog replica records of a lost data block
// over its reconstructed content data and forwards the deltas of those
// that change it to the parity logs down does not name, one list per
// parity (§4.2). The records come from the first holder that is not
// down, answers and has any. A record the primary recycled before it
// failed changes nothing — replicas hold absolute data — and is skipped.
func (t *tsue) ReplayReplicas(ctx context.Context, p Placement, lost wire.BlockID, data []byte, down func(wire.NodeID) bool) (int64, time.Duration, error) {
	if int(lost.Idx) >= p.K {
		return 0, 0, nil // a parity block has no DataLog
	}
	var cost time.Duration
	for _, node := range t.replicaHolders(p.Loc, lost.Idx) {
		if down(node) {
			continue
		}
		resp, err := t.env.Call(ctx, node, &wire.Msg{Kind: wire.KReplicaFetch, Block: lost, Class: sim.ClassRebuild})
		if err != nil {
			continue // unreachable: the next holder has the same records
		}
		if !resp.OK() || len(resp.Data) == 0 {
			resp.Release()
			continue
		}
		cost += resp.Cost
		recs, err := DecodeExtents(resp.Data)
		var (
			deltas   []logpool.Extent
			replayed int64
		)
		for _, r := range recs {
			end := int(r.Off) + len(r.Data)
			if end > len(data) {
				continue
			}
			delta := make([]byte, len(r.Data))
			subtle.XORBytes(delta, data[r.Off:end], r.Data)
			if slices.ContainsFunc(delta, func(b byte) bool { return b != 0 }) {
				copy(data[r.Off:], r.Data)
				replayed += int64(len(r.Data))
				deltas = append(deltas, logpool.Extent{Off: r.Off, V: time.Duration(r.V), Data: delta})
			}
		}
		resp.Release()
		if err != nil || replayed == 0 {
			return 0, cost, err
		}
		code, err := t.env.Code(p.K, p.M)
		if err != nil {
			return 0, cost, err
		}
		lists := parityDeltaLists(code, map[int][]logpool.Extent{int(lost.Idx): deltas})
		calls := parityAppends(p, lost, lists, false, down)
		for _, c := range calls {
			c.Msg.Class = sim.ClassRebuild
		}
		sent, _, err := deliver(ctx, t.env, calls)
		return replayed, cost + sent, err
	}
	return 0, cost, nil
}

// pruneCopies drops the copies whose every byte is zero — trims have
// cancelled all they held, so they would promote nothing — and those of
// stripes whose second parity OSD is no longer this node: their trims
// now go to the new holder.
func (t *tsue) pruneCopies() {
	t.copyMu.Lock()
	defer t.copyMu.Unlock()
	for b, ci := range t.deltaCopy {
		if place, ok := t.env.Placement(b); !ok || place.M < 2 || place.parityNode(1) != t.env.ID() || zeroIndex(ci) {
			delete(t.deltaCopy, b)
		}
	}
}

// zeroIndex reports whether every indexed byte is zero.
func zeroIndex(x *logpool.Index) bool {
	return !slices.ContainsFunc(x.Extents(), func(e logpool.Extent) bool {
		return slices.ContainsFunc(e.Data, func(c byte) bool { return c != 0 })
	})
}
