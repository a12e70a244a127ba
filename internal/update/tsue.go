package update

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/gf256"
	"repro/internal/logpool"
	"repro/internal/sim"
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

	// deltaCopy holds the second-parity-OSD copies of data deltas
	// (recovery source only; dropped, not recycled, on drain).
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
// merged extent, then delta forwarding to the DeltaLog layer (or, with O5
// disabled, straight to every ParityLog).
func (t *tsue) recycleData(be logpool.BlockExtents, sealV time.Duration) time.Duration {
	si, ok := t.stripes.get(be.Block)
	if !ok {
		return 0
	}
	// A recycle has no caller to report a store error to: the deltas of
	// the extents written before it still go out.
	outs, cost, _ := t.env.Store().Overwrite(sim.ClassOther, be.Block, t.cfg.BlockSize, storeExtents(be.Extents))
	if si.M == 0 {
		return cost
	}
	code, err := t.env.Code(si.K, si.M)
	if err != nil {
		return cost
	}
	for _, o := range outs {
		if t.cfg.UseDeltaLog && t.deltaLogsAvailable(si) {
			// Primary delta to parity OSD 1, copy to parity OSD 2.
			targets := []wire.NodeID{si.parityNode(0)}
			if si.M >= 2 {
				targets = append(targets, si.parityNode(1))
			}
			payload, flag := o.Data, uint8(0)
			if t.cfg.CompressDeltas {
				if c, ok := compressDelta(o.Data); ok {
					payload, flag = c, deltaCompressFlag
				}
			}
			for i, to := range targets {
				resp, err := t.env.Call(context.Background(), to, &wire.Msg{
					Kind: wire.KDeltaLogAdd, Block: be.Block, Off: o.Off, Data: payload,
					Idx: be.Block.Idx, K: uint8(si.K), M: uint8(si.M), Loc: si.Loc,
					Flag: uint8(i) | flag, // low bits: 0 = primary, 1 = copy
					V:    int64(sealV),
				})
				if err == nil {
					if resp.OK() {
						cost += resp.Cost
					}
					resp.Release()
				}
			}
		} else {
			// O5 disabled (or HDD profile): per-parity deltas straight
			// to the parity logs.
			for j := 0; j < si.M; j++ {
				pd := code.ParityDelta(j, int(be.Block.Idx), o.Data)
				resp, err := t.env.Call(context.Background(), si.parityNode(j), &wire.Msg{
					Kind: wire.KParityLogAdd, Block: parityBlock(be.Block, si.K, j),
					Off: o.Off, Data: pd, K: uint8(si.K), M: uint8(si.M), Loc: si.Loc,
					V: int64(sealV),
				})
				if err == nil {
					if resp.OK() {
						cost += resp.Cost
					}
					resp.Release()
				}
			}
		}
	}
	return cost
}

// deltaLogsAvailable reports whether this cluster's configuration routes
// deltas through DeltaLogs (the receiving OSDs run the same strategy, so
// local configuration decides).
func (t *tsue) deltaLogsAvailable(si stripeInfo) bool { return si.M >= 1 }

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

func (t *tsue) recycleDeltaUnit(u *logpool.Unit) (cost, wall time.Duration, extents, bytes int64) {
	type stripeWork struct {
		si     stripeInfo
		blocks map[int][]logpool.Extent
		anyB   wire.BlockID
		sealV  time.Duration
	}
	work := make(map[stripeKey]*stripeWork)
	for _, be := range u.Blocks() {
		extents += int64(len(be.Extents))
		for _, e := range be.Extents {
			bytes += int64(len(e.Data))
		}
		si, ok := t.stripes.get(be.Block)
		if !ok {
			continue
		}
		k := keyOf(be.Block)
		sw := work[k]
		if sw == nil {
			sw = &stripeWork{si: si, blocks: make(map[int][]logpool.Extent), anyB: be.Block}
			work[k] = sw
		}
		sw.blocks[int(be.Block.Idx)] = be.Extents
	}
	// Stripes merge independently; model wall time as the largest
	// per-stripe cost (stripes recycle in parallel across workers).
	for _, sw := range work {
		code, err := t.env.Code(sw.si.K, sw.si.M)
		if err != nil {
			continue
		}
		var stripeCost time.Duration
		for j := 0; j < sw.si.M; j++ {
			merged := logpool.NewIndex(logpool.XorFold)
			for src, exts := range sw.blocks {
				coeff := code.Coeff(j, src)
				for _, e := range exts {
					merged.InsertScaled(coeff, e.Off, e.Data, e.V)
				}
			}
			pb := parityBlock(sw.anyB, sw.si.K, j)
			for _, e := range merged.Extents() {
				payload, flag := e.Data, uint8(0)
				if t.cfg.CompressDeltas {
					if c, ok := compressDelta(e.Data); ok {
						payload, flag = c, deltaCompressFlag
					}
				}
				resp, err := t.env.Call(context.Background(), sw.si.parityNode(j), &wire.Msg{
					Kind: wire.KParityLogAdd, Block: pb, Off: e.Off, Data: payload, Flag: flag,
					K: uint8(sw.si.K), M: uint8(sw.si.M), Loc: sw.si.Loc, V: int64(e.V),
				})
				if err == nil {
					if resp.OK() {
						stripeCost += resp.Cost
					}
					resp.Release()
				}
			}
		}
		cost += stripeCost
		if stripeCost > wall {
			wall = stripeCost
		}
		// Trim the copies at the second parity OSD: the recycled deltas
		// are now durable in the ParityLogs, so their copies must stop
		// contributing to a future promotion. The trim message carries
		// only the range; the copy holder cancels locally (§4.2).
		if sw.si.M >= 2 {
			for src, exts := range sw.blocks {
				b := sw.anyB.WithIdx(uint8(src))
				for _, e := range exts {
					resp, err := t.env.Call(context.Background(), sw.si.parityNode(1), &wire.Msg{
						Kind: wire.KDeltaLogAdd, Block: b, Off: e.Off,
						Size: uint32(len(e.Data)), Flag: 2,
					})
					if err == nil {
						if resp.OK() {
							cost += resp.Cost
						}
						resp.Release()
					}
				}
			}
		}
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

func (t *tsue) Handle(ctx context.Context, msg *wire.Msg) *wire.Resp {
	switch msg.Kind {
	case wire.KDataLogReplica:
		// Replica is persisted to SSD (§4.1) and retained so the
		// primary's pending updates survive its failure (§4.2).
		t.repMu.Lock()
		ri := t.replicas[msg.Block]
		if ri == nil {
			ri = logpool.NewIndex(logpool.Overwrite)
			t.replicas[msg.Block] = ri
		}
		ri.Insert(msg.Off, msg.Data, time.Duration(msg.V))
		t.repMu.Unlock()
		if t.repPersist != nil {
			t.repPersist.AppendEntry(0, msg.Block, msg.Off, msg.V, msg.Data)
		}
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
				recs = append(recs, ExtentRec{Off: e.Off, Data: append([]byte(nil), e.Data...)})
			}
		}
		t.repMu.Unlock()
		payload := EncodeExtents(recs)
		var cost time.Duration
		if len(payload) > 0 {
			cost = t.env.Dev().Read(sim.ClassOther, int64(len(payload)), false)
		}
		return &wire.Resp{Data: payload, Cost: cost}
	case wire.KDeltaLogAdd:
		t.stripes.remember(msg)
		role := msg.Flag &^ deltaCompressFlag
		data := msg.Data
		if msg.Flag&deltaCompressFlag != 0 {
			var err error
			if data, err = decompressDelta(msg.Data); err != nil {
				return errResp(err)
			}
		}
		if role == 2 {
			// Copy trim: cancel the recycled range by XOR-inserting its
			// own current content (zero-cost local cancellation).
			t.copyMu.Lock()
			if ci := t.deltaCopy[msg.Block]; ci != nil && msg.Size > 0 {
				buf := make([]byte, msg.Size)
				ci.Overlay(msg.Off, buf)
				ci.Insert(msg.Off, buf, 0)
			}
			t.copyMu.Unlock()
			return okResp(0)
		}
		if role == 1 {
			// Copy for reliability at the second parity OSD: persist
			// and index for recovery, but never recycle.
			t.copyMu.Lock()
			ci := t.deltaCopy[msg.Block]
			if ci == nil {
				ci = logpool.NewIndex(logpool.XorFold)
				t.deltaCopy[msg.Block] = ci
			}
			ci.Insert(msg.Off, data, time.Duration(msg.V))
			t.copyMu.Unlock()
			cost := t.env.Dev().Write(sim.ClassOther, int64(len(msg.Data))+32, false, false)
			return okResp(cost)
		}
		if t.deltaLogs == nil {
			return errResp(fmt.Errorf("tsue: delta log disabled on node %d", t.env.ID()))
		}
		cost := t.deltaLogs.Append(msg.Block, msg.Off, data, time.Duration(msg.V))
		return okResp(cost)
	case wire.KParityLogAdd:
		t.stripes.remember(msg)
		data := msg.Data
		if msg.Flag&deltaCompressFlag != 0 {
			var err error
			if data, err = decompressDelta(msg.Data); err != nil {
				return errResp(err)
			}
		}
		cost := t.parityLogs.Append(msg.Block, msg.Off, data, time.Duration(msg.V))
		return okResp(cost)
	default:
		return errResp(fmt.Errorf("tsue: unexpected message %v", msg.Kind))
	}
}

// Read serves client reads: the DataLog doubles as a read cache
// (§3.3.3) — a fully covered range is served from memory at zero device
// cost; otherwise the base block is read and pending log content overlaid.
func (t *tsue) Read(b wire.BlockID, off uint32, size int) ([]byte, time.Duration, error) {
	if data, ok := t.dataLogs.Lookup(b, off, uint32(size)); ok {
		return data, 0, nil // Lookup's copy is ours
	}
	data, cost, err := t.env.Store().ReadRange(sim.ClassForegroundRead, b, off, size, true)
	if err != nil {
		return nil, 0, err
	}
	t.dataLogs.Overlay(b, off, data)
	return data, cost, nil
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
		t.copyMu.Lock()
		t.deltaCopy = make(map[wire.BlockID]*logpool.Index)
		t.copyMu.Unlock()
	case 3:
		t.parityLogs.Drain(0)
	}
	return nil
}

// promoteCopies recycles delta copies for stripes whose first parity OSD
// (the primary DeltaLog host) is dead, sending merged parity deltas to
// the surviving parity logs (§4.2 log reliability).
func (t *tsue) promoteCopies(ctx context.Context, dead []wire.NodeID) error {
	isDead := func(n wire.NodeID) bool {
		for _, d := range dead {
			if d == n {
				return true
			}
		}
		return false
	}
	// Snapshot under the lock: role-1 KDeltaLogAdd inserts keep arriving
	// and XOR-fold into the copies' extents in place.
	type promotion struct {
		b    wire.BlockID
		si   stripeInfo
		exts []logpool.Extent
	}
	var work []promotion
	t.copyMu.Lock()
	for b, ci := range t.deltaCopy {
		si, ok := t.stripes.get(b)
		if !ok || !isDead(si.parityNode(0)) {
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
		for j := 0; j < si.M; j++ {
			target := si.parityNode(j)
			if isDead(target) {
				continue
			}
			pb := parityBlock(b, si.K, j)
			for _, e := range w.exts {
				pd := make([]byte, len(e.Data))
				gf256.MulSlice(code.Coeff(j, int(b.Idx)), pd, e.Data)
				resp, err := t.env.Call(ctx, target, &wire.Msg{
					Kind: wire.KParityLogAdd, Block: pb, Off: e.Off, Data: pd,
					K: uint8(si.K), M: uint8(si.M), Loc: si.Loc, V: int64(e.V),
				})
				if err != nil {
					return err
				}
				err = resp.Error()
				resp.Release()
				if err != nil {
					return err
				}
			}
		}
	}
	return nil
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
