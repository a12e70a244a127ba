package update

import (
	"context"
	"fmt"
	"slices"
	"strings"
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
	cfg     Config
	env     Env
	stripes *stripeTable

	dataLogs   *logpool.PoolSet
	dataRecs   []*logpool.Recycler
	deltaLogs  *logpool.PoolSet // nil when UseDeltaLog is false
	deltaDone  []chan struct{}
	parityLogs *logpool.PoolSet
	parityRecs []*logpool.Recycler

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
		cfg: cfg, env: env, stripes: newStripeTable(),
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
	dataMode, parityMode := logpool.Overwrite, logpool.XorFold
	if !cfg.DataLogLocality {
		dataMode = logpool.NoMerge
	}
	if !cfg.ParityLogLocality {
		parityMode = logpool.NoMerge
	}

	var err error
	// DataLog appends sit on the client ack path, so their device
	// charges are foreground writes; delta/parity log appends arrive on
	// asynchronous recycle forwards and stay background-classified.
	t.dataLogs, err = logpool.NewPoolSet(pools, logpool.Config{
		Name: fmt.Sprintf("tsue-data/osd%d/", env.ID()), Mode: dataMode,
		UnitSize: unitSize, MaxUnits: maxUnits, Device: env.Dev(),
		Class: sim.ClassForegroundWrite, Persist: cfg.Persist,
	})
	if err != nil {
		return nil, err
	}
	t.parityLogs, err = logpool.NewPoolSet(pools, logpool.Config{
		Name: fmt.Sprintf("tsue-parity/osd%d/", env.ID()), Mode: parityMode,
		UnitSize: unitSize, MaxUnits: maxUnits, Device: env.Dev(),
		Persist: cfg.Persist,
	})
	if err != nil {
		return nil, err
	}
	if cfg.Persist != nil {
		// Replica records are durably logged under one never-folded
		// generation: they are the recovery source for a failed primary's
		// pending updates and are absolute-data (idempotent to replay).
		t.repPersist = cfg.Persist.Layer(fmt.Sprintf("tsue-replica/osd%d", env.ID()))
	}
	for _, p := range t.dataLogs.Pools() {
		t.dataRecs = append(t.dataRecs, logpool.StartRecycler(p, cfg.Workers, t.recycleData))
	}
	for _, p := range t.parityLogs.Pools() {
		t.parityRecs = append(t.parityRecs, logpool.StartRecycler(p, cfg.Workers, t.recycleParity))
	}
	if cfg.UseDeltaLog {
		t.deltaLogs, err = logpool.NewPoolSet(pools, logpool.Config{
			Name: fmt.Sprintf("tsue-delta/osd%d/", env.ID()), Mode: logpool.XorFold,
			UnitSize: unitSize, MaxUnits: maxUnits, Device: env.Dev(),
			Persist: cfg.Persist,
		})
		if err != nil {
			return nil, err
		}
		for _, p := range t.deltaLogs.Pools() {
			done := make(chan struct{})
			t.deltaDone = append(t.deltaDone, done)
			go t.deltaLoop(p, done)
		}
	}
	return t, nil
}

func (t *tsue) Name() string { return "tsue" }

// RefreshPlacement adopts a newer placement epoch (epoch broadcast).
func (t *tsue) RefreshPlacement(msg *wire.Msg) { t.stripes.remember(msg) }

// Update is the synchronous front end: sequential DataLog append plus
// replica forwarding — the whole client-perceived path (§3.1.1).
func (t *tsue) Update(ctx context.Context, msg *wire.Msg) (time.Duration, error) {
	t.stripes.remember(msg)
	v := time.Duration(msg.V)
	lat := t.dataLogs.Append(msg.Block, msg.Off, msg.Data, v)

	// Replicate the log record to the next OSD(s) of the stripe.
	n := len(msg.Loc.Nodes)
	if n > 1 && t.cfg.DataLogReplicas > 0 {
		pos := int(msg.Block.Idx)
		targets := make([]wire.NodeID, 0, t.cfg.DataLogReplicas)
		for r := 1; r <= t.cfg.DataLogReplicas && r < n; r++ {
			targets = append(targets, msg.Loc.Nodes[(pos+r)%n])
		}
		repCost, err := fanout(ctx, t.env, targets, func(wire.NodeID) *wire.Msg {
			return &wire.Msg{Kind: wire.KDataLogReplica, Block: msg.Block, Off: msg.Off, Data: msg.Data, V: msg.V}
		})
		if err != nil {
			return 0, err
		}
		lat += repCost
	}
	return lat, nil
}

// recycleData is the DataLog recycle function: one read-modify-write per
// merged extent, then the block's data deltas go out as one extent list
// per target: to the DeltaLog layer, or, with O5 disabled, to every
// ParityLog in one batch.
func (t *tsue) recycleData(be logpool.BlockExtents, sealV time.Duration) time.Duration {
	si, ok := t.stripes.get(be.Block)
	if !ok {
		return 0
	}
	// A recycle has no caller to report a store error to: the deltas of
	// the extents written before it still go out.
	outs, cost, _ := t.env.Store().Overwrite(sim.ClassOther, be.Block, t.cfg.BlockSize, storeExtents(be.Extents))
	if si.M == 0 || len(outs) == 0 {
		return cost
	}
	code, err := t.env.Code(si.K, si.M)
	if err != nil {
		return cost
	}
	ctx := context.Background()
	if t.cfg.UseDeltaLog {
		// Primary delta to parity OSD 1, copy to parity OSD 2. The copy
		// goes first: the primary's trim cancels its copy, so the
		// primary takes only deltas whose copy is in place.
		recs := make([]ExtentRec, len(outs))
		for i, o := range outs {
			recs[i] = ExtentRec{Off: o.Off, V: int64(sealV), Data: o.Data}
		}
		payload, flag := pack(EncodeExtents(recs), t.cfg.CompressDeltas)
		add := func(role uint8) []*transport.BatchCall {
			return []*transport.BatchCall{{To: si.parityNode(int(role)), Msg: &wire.Msg{
				Kind: wire.KDeltaLogAdd, Block: be.Block, Data: payload,
				Idx: be.Block.Idx, K: uint8(si.K), M: uint8(si.M), Loc: si.Loc, Flag: role | flag,
			}}}
		}
		var copied time.Duration
		if si.M >= 2 {
			copied, _, err = deliver(ctx, t.env, add(roleCopy))
		}
		if err == nil {
			sent, _, _ := deliver(ctx, t.env, add(rolePrimary))
			return cost + copied + sent
		}
		// The copy was refused: bypass the DeltaLog as O5-off does, so
		// no trim can cancel a copy the holder does not have.
	}
	// Per-parity deltas straight to the parity logs.
	calls := make([]*transport.BatchCall, si.M)
	for j := range calls {
		recs := make([]ExtentRec, len(outs))
		for i, o := range outs {
			recs[i] = ExtentRec{Off: o.Off, V: int64(sealV), Data: code.ParityDelta(j, int(be.Block.Idx), o.Data)}
		}
		calls[j] = &transport.BatchCall{To: si.parityNode(j), Msg: &wire.Msg{
			Kind: wire.KParityLogAdd, Block: parityBlock(be.Block, si.K, j), Data: EncodeExtents(recs),
			K: uint8(si.K), M: uint8(si.M), Loc: si.Loc,
		}}
	}
	sent, _, _ := deliver(ctx, t.env, calls)
	return cost + sent
}

// deltaLoop drains DeltaLog units stripe-by-stripe: Eq. 3 folding already
// happened in the XOR index; here deltas of different data blocks merge
// into per-parity deltas (Eq. 5) and flow to the ParityLogs.
func (t *tsue) deltaLoop(p *logpool.Pool, done chan struct{}) {
	defer close(done)
	for {
		u := p.TakeRecyclable(true)
		if u == nil {
			return
		}
		cost, wall, extents, bytes := t.recycleDeltaUnit(u)
		p.FinishRecycle(u, cost, wall, u.Entries(), extents, bytes)
	}
}

// recycleDeltaUnit merges a sealed DeltaLog unit stripe by stripe: each
// stripe's M parity deltas (Eq. 5) leave as one batch of M extent lists,
// and once the parity logs have acknowledged them, each source block's
// copy at the second parity OSD is trimmed by one list of the recycled
// deltas.
func (t *tsue) recycleDeltaUnit(u *logpool.Unit) (cost, wall time.Duration, extents, bytes int64) {
	work, extents, bytes := groupByStripe(t.stripes, u.Blocks())
	// Stripes merge independently; model wall time as the largest
	// per-stripe cost (stripes recycle in parallel across workers).
	for _, sw := range work {
		code, err := t.env.Code(sw.si.K, sw.si.M)
		if err != nil {
			continue
		}
		calls := parityAppends(code, sw, t.cfg.CompressDeltas, nil)
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
		if sw.si.M < 2 {
			continue
		}
		calls = calls[:0]
		for src, exts := range sw.blocks {
			recs := make([]ExtentRec, len(exts))
			for i, e := range exts {
				recs[i] = ExtentRec{Off: e.Off, V: int64(e.V), Data: e.Data}
			}
			payload, flag := pack(EncodeExtents(recs), t.cfg.CompressDeltas)
			calls = append(calls, &transport.BatchCall{To: sw.si.parityNode(1), Msg: &wire.Msg{
				Kind: wire.KDeltaLogAdd, Block: sw.anyB.WithIdx(uint8(src)), Data: payload, Flag: roleTrim | flag,
			}})
		}
		trimCost, _, _ := deliver(context.Background(), t.env, calls)
		cost += trimCost
	}
	return cost, wall, extents, bytes
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

func (t *tsue) Handle(ctx context.Context, msg *wire.Msg) *wire.Resp {
	switch msg.Kind {
	case wire.KDataLogReplica:
		// Replica is persisted to SSD (§4.1) and retained so the
		// primary's pending updates survive its failure (§4.2).
		t.insertReplica(msg.Block, msg.Off, msg.V, msg.Data)
		cost := t.env.Dev().Write(sim.ClassForegroundWrite, int64(len(msg.Data))+32, false, false)
		return okResp(cost)
	case wire.KReplicaFetch:
		// Recovery replay: return the replicated log extents for the
		// requested block, priced as a sequential log read.
		t.repMu.Lock()
		ri := t.replicas[msg.Block]
		var recs []ExtentRec
		if ri != nil {
			for _, e := range ri.Extents() {
				recs = append(recs, ExtentRec{Off: e.Off, V: int64(e.V), Data: e.Data})
			}
		}
		payload := EncodeExtents(recs) // copies out before inserts resume
		t.repMu.Unlock()
		var cost time.Duration
		if len(payload) > 0 {
			cost = t.env.Dev().Read(sim.ClassOther, int64(len(payload)), false)
		}
		return &wire.Resp{Data: payload, Cost: cost}
	case wire.KDeltaLogAdd:
		t.stripes.remember(msg)
		if msg.Flag&^deltaCompressFlag != rolePrimary {
			return t.holdCopy(msg)
		}
		if t.deltaLogs == nil {
			return errResp(fmt.Errorf("tsue: delta log disabled on node %d", t.env.ID()))
		}
		return applyList(msg, func(r ExtentRec) time.Duration {
			return t.deltaLogs.Append(msg.Block, r.Off, r.Data, time.Duration(r.V))
		})
	case wire.KParityLogAdd:
		t.stripes.remember(msg)
		return applyList(msg, func(r ExtentRec) time.Duration {
			return t.parityLogs.Append(msg.Block, r.Off, r.Data, time.Duration(r.V))
		})
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

// Read serves client reads: the DataLog doubles as a read cache
// (§3.3.3) — a fully covered range is served from memory at zero device
// cost; otherwise the base block is read and pending log content overlaid.
func (t *tsue) Read(b wire.BlockID, off uint32, size int) ([]byte, time.Duration, error) {
	if data, ok := t.dataLogs.Lookup(b, off, uint32(size)); ok {
		return data, 0, nil // Lookup's copy is ours
	}
	return readThrough(t.dataLogs.Pick(b), b, off, func() ([]byte, time.Duration, error) {
		return t.env.Store().ReadRange(sim.ClassForegroundRead, b, off, size, true)
	})
}

// ReplayPersisted routes a record recovered from the durable segment
// store back into its log layer. Placements are seeded before replay,
// so subsequent recycles can route deltas; re-appending through the
// normal path re-persists the record under the new segment era.
func (t *tsue) ReplayPersisted(layer string, block wire.BlockID, off uint32, v int64, data []byte) {
	switch {
	case strings.HasPrefix(layer, "tsue-data/"):
		t.dataLogs.Append(block, off, data, time.Duration(v))
	case strings.HasPrefix(layer, "tsue-delta/"):
		if t.deltaLogs != nil {
			t.deltaLogs.Append(block, off, data, time.Duration(v))
		}
	case strings.HasPrefix(layer, "tsue-parity/"):
		t.parityLogs.Append(block, off, data, time.Duration(v))
	case strings.HasPrefix(layer, "tsue-replica/"):
		t.insertReplica(block, off, v, data)
	}
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

// Drain flushes layer by layer; the cluster calls phase 1 on every node,
// then 2, then 3, so deltas produced by one layer land before the next
// layer drains (§3.1.2 real-time recycle, forced to completion).
func (t *tsue) Drain(ctx context.Context, phase int, dead []wire.NodeID) error {
	switch phase {
	case 1:
		t.dataLogs.Drain(0)
	case 2:
		if t.deltaLogs != nil {
			t.deltaLogs.Drain(0)
		}
		// Promote delta copies whose primary DeltaLog died with its OSD.
		if len(dead) > 0 {
			if err := t.promoteCopies(ctx, dead); err != nil {
				return err
			}
		}
	case 3:
		// Every node's phase-2 trims have landed: a cluster-wide drain
		// leaves the copies of live primaries all zero.
		t.pruneCopies()
		t.parityLogs.Drain(0)
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
		b    wire.BlockID
		si   stripeInfo
		exts []logpool.Extent
	}
	var work []promotion
	t.copyMu.Lock()
	for b, ci := range t.deltaCopy {
		si, ok := t.stripes.get(b)
		if !ok || !slices.Contains(dead, si.parityNode(0)) || zeroIndex(ci) {
			continue
		}
		exts := slices.Clone(ci.Extents())
		for i := range exts {
			exts[i].Data = slices.Clone(exts[i].Data)
		}
		work = append(work, promotion{b: b, si: si, exts: exts})
	}
	t.copyMu.Unlock()
	for _, w := range work {
		b, si := w.b, w.si
		code, err := t.env.Code(si.K, si.M)
		if err != nil {
			return err
		}
		sw := &stripeWork{si: si, anyB: b, blocks: map[int][]logpool.Extent{int(b.Idx): w.exts}}
		calls := parityAppends(code, sw, false, func(n wire.NodeID) bool { return slices.Contains(dead, n) })
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

// pruneCopies drops the copies whose every byte is zero — trims have
// cancelled all they held, so they would promote nothing — and those of
// stripes whose second parity OSD is no longer this node: their trims
// now go to the new holder.
func (t *tsue) pruneCopies() {
	t.copyMu.Lock()
	defer t.copyMu.Unlock()
	for b, ci := range t.deltaCopy {
		if si, ok := t.stripes.get(b); !ok || si.M < 2 || si.parityNode(1) != t.env.ID() || zeroIndex(ci) {
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

func (t *tsue) Close() {
	t.dataLogs.Close()
	t.parityLogs.Close()
	if t.deltaLogs != nil {
		t.deltaLogs.Close()
	}
	for _, r := range t.dataRecs {
		r.Wait()
	}
	for _, r := range t.parityRecs {
		r.Wait()
	}
	for _, done := range t.deltaDone {
		<-done
	}
}

// RealTimeFlush performs the idle-timeout seal-and-recycle that
// real-time recycling completes within seconds of the workload going
// quiet (Table 2: maximum receive-to-reclaim interval of 7 s). The
// paper's recovery experiment starts after client requests terminate, so
// TSUE enters recovery with empty logs.
func (t *tsue) RealTimeFlush() error {
	for phase := 1; phase <= DrainPhases; phase++ {
		if err := t.Drain(context.Background(), phase, nil); err != nil {
			return err
		}
	}
	return nil
}

// Settle waits until all sealed log units across the three layers have
// been recycled — the steady state of real-time recycling — without
// force-sealing active units. Used by the benchmark harness to let
// in-flight asynchronous work finish before reading counters.
func (t *tsue) Settle() {
	t.dataLogs.WaitIdle()
	if t.deltaLogs != nil {
		t.deltaLogs.WaitIdle()
	}
	t.parityLogs.WaitIdle()
}

// LayerStats exposes per-layer log pool statistics for the paper's
// Table 2 and the breakdown analyses.
func (t *tsue) LayerStats() map[string]logpool.Stats {
	out := map[string]logpool.Stats{
		"data":   t.dataLogs.Stats(),
		"parity": t.parityLogs.Stats(),
	}
	if t.deltaLogs != nil {
		out["delta"] = t.deltaLogs.Stats()
	}
	return out
}

// MemoryBytes reports the configured log-buffer budget across layers —
// the quantity the paper's Fig. 6b sweeps (pools expand toward the quota
// under sustained load and shrink when idle, so the budget is the
// resident peak).
func (t *tsue) MemoryBytes() int64 {
	n := t.dataLogs.QuotaBytes() + t.parityLogs.QuotaBytes()
	if t.deltaLogs != nil {
		n += t.deltaLogs.QuotaBytes()
	}
	return n
}
