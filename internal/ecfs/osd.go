package ecfs

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/blockstore"
	"repro/internal/device"
	"repro/internal/erasure"
	"repro/internal/logpool"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/update"
	"repro/internal/wire"
)

// OSD is one object storage device server: a device model, the block
// store it prices, and the update strategy instance bound to this node.
// OSD implements update.Env.
type OSD struct {
	id       wire.NodeID
	dev      *device.Device
	store    *blockstore.Store
	eng      *store.Engine // durable backing; nil for in-memory OSDs
	rpc      transport.RPC
	strategy update.Strategy
	codeKind erasure.MatrixKind
	// blockSize bounds a KRead before it is served: the request's size
	// comes off the wire.
	blockSize int

	closeOnce sync.Once

	codeMu sync.RWMutex
	codes  map[[2]int]*erasure.Code

	// places is the OSD's one record per stripe, written only by learn:
	// the newest placement seen on any inbound message and the highest
	// epoch of a client full-block write. Client-boundary requests
	// (KWriteBlock, KUpdate, KRead) carrying an older epoch are rejected
	// with a structured stale reply so the caller re-resolves at the
	// MDS; strategies route asynchronous deltas by it (Placement).
	placeMu sync.RWMutex
	places  map[stripeKey]stripeRecord

	// inflight counts client-boundary *mutations* (KWriteBlock,
	// KUpdate) currently executing per stripe. An epoch fence
	// (KEpochUpdate) waits for the stripe's count to reach zero after
	// bumping the epoch, so a drain's post-fence refetch observes every
	// update this OSD ever acknowledged for the stripe — requests are
	// registered *before* their epoch check, which makes the
	// fence-then-drain sequence airtight (see Handler).
	inflightMu   sync.Mutex
	inflightCond *sync.Cond
	inflight     map[stripeKey]int

	// listenAddr is the advertised TCP listen address, reported on every
	// heartbeat so the MDS address map can serve it (wire.KResolveAddr).
	// Empty for in-process deployments.
	addrMu     sync.Mutex
	listenAddr string
}

// NewOSD builds an in-memory OSD and its strategy. The caller registers
// osd.Handler on the transport.
func NewOSD(id wire.NodeID, prof device.Profile, rpc transport.RPC, method string, cfg update.Config, kind erasure.MatrixKind) (*OSD, error) {
	return NewOSDAt(id, prof, rpc, method, cfg, kind, "")
}

// enginePersist adapts the storage engine to the log pools'
// PersistProvider: each pool's records land in its own named on-disk
// segment layer.
type enginePersist struct{ eng *store.Engine }

// Layer returns the engine's segment layer for the named pool.
func (p enginePersist) Layer(name string) logpool.Persist { return p.eng.Layer(name) }

// NewOSDAt is NewOSD with a data directory. A non-empty dataDir selects
// the durable storage engine: block contents go through the WAL-backed
// page store, the strategy's log records are persisted to on-disk
// segments (PLR and PARIX, whose logs cannot be, are refused), and
// reopening an existing directory recovers all of it — redo committed
// WAL records, re-seed the journaled placements, and replay surviving
// (unfolded) log records back into the strategy's pools — so a
// kill-restarted OSD rejoins with its local data intact.
func NewOSDAt(id wire.NodeID, prof device.Profile, rpc transport.RPC, method string, cfg update.Config, kind erasure.MatrixKind, dataDir string) (*OSD, error) {
	dev := device.New(fmt.Sprintf("osd%d/%s", id, prof.Kind), prof)
	o := &OSD{
		id:        id,
		dev:       dev,
		rpc:       rpc,
		codeKind:  kind,
		blockSize: cfg.BlockSize,
		codes:     make(map[[2]int]*erasure.Code),
		places:    make(map[stripeKey]stripeRecord),
		inflight:  make(map[stripeKey]int),
	}
	o.inflightCond = sync.NewCond(&o.inflightMu)
	if dataDir != "" {
		eng, err := store.Open(dataDir, store.Options{})
		if err != nil {
			return nil, fmt.Errorf("ecfs: osd %d open %s: %w", id, dataDir, err)
		}
		o.eng = eng
		o.store = blockstore.NewDurable(dev, eng)
		cfg.Persist = enginePersist{eng}
	} else {
		o.store = blockstore.New(dev)
	}
	s, err := update.New(method, cfg, o)
	if err != nil {
		if o.eng != nil {
			o.eng.Close()
		}
		return nil, err
	}
	o.strategy = s
	if o.eng != nil {
		o.recoverLocal()
	}
	return o, nil
}

// recoverLocal finishes a durable OSD's open: seed the placement table
// with the last placement learn journaled for each stripe, then replay
// surviving log-segment records through the strategy's normal append
// path. The table MUST be seeded first — a recycle triggered by a
// replayed append routes deltas by it, and an unknown stripe recycles
// to nothing. A placement journaled before its geometry was known keeps
// its nodes and epoch, so it still fences stale clients, but stays
// unknown to the strategy until a message brings K.
func (o *OSD) recoverLocal() {
	o.eng.ForEachPlacement(func(ino uint64, stripe uint32, p store.Placement) {
		o.places[stripeKey{ino, stripe}] = stripeRecord{Placement: update.Placement{
			K: p.K, M: p.M, Loc: wire.StripeLoc{Nodes: p.Nodes, Epoch: p.Epoch},
		}}
	})
	o.eng.Replay(func(e store.SegEntry) {
		o.strategy.ReplayPersisted(e.Layer, e.Block, e.Off, e.V, e.Data)
	})
	// Replayed records were re-persisted under the new segment era by
	// the appends above; the previous era's files are now dead weight.
	o.eng.FinishReplay()
}

// Engine returns the durable storage engine, or nil for in-memory OSDs.
func (o *OSD) Engine() *store.Engine { return o.eng }

// --- update.Env implementation ---

// ID returns the OSD's node id.
func (o *OSD) ID() wire.NodeID { return o.id }

// Store returns the block container.
func (o *OSD) Store() *blockstore.Store { return o.store }

// Dev returns the device model.
func (o *OSD) Dev() *device.Device { return o.dev }

// Call performs a synchronous RPC to a peer node.
func (o *OSD) Call(ctx context.Context, to wire.NodeID, msg *wire.Msg) (*wire.Resp, error) {
	return o.rpc.Call(ctx, to, msg)
}

// CallBatch delivers a set of peer calls together (transport.RPC's
// CallBatch): over TCP same-destination frames enter their
// connection's write queue in one flush; in process the calls run
// concurrently.
func (o *OSD) CallBatch(ctx context.Context, calls []*transport.BatchCall) {
	o.rpc.CallBatch(ctx, calls)
}

// Code returns the cached RS code for a geometry.
func (o *OSD) Code(k, m int) (*erasure.Code, error) {
	key := [2]int{k, m}
	o.codeMu.RLock()
	c := o.codes[key]
	o.codeMu.RUnlock()
	if c != nil {
		return c, nil
	}
	o.codeMu.Lock()
	defer o.codeMu.Unlock()
	if c = o.codes[key]; c != nil {
		return c, nil
	}
	c, err := erasure.New(k, m, o.codeKind)
	if err != nil {
		return nil, err
	}
	o.codes[key] = c
	return c, nil
}

// Strategy exposes the bound update strategy (tests, metrics).
func (o *OSD) Strategy() update.Strategy { return o.strategy }

// stripeRecord is what an OSD knows about one stripe. Loc.Epoch is the
// stripe's placement epoch here. K is zero until a message carrying the
// geometry arrives; until then the placement is unknown to the
// strategy.
type stripeRecord struct {
	update.Placement
	// overwrite is the highest placement epoch at which a client
	// full-block write (KWriteBlock) landed here. A drain's post-fence
	// re-store (KBlockStore with wire.StoreUnlessOverwritten) is skipped
	// when a client has already overwritten the block at its epoch — the
	// old-epoch content being carried over is superseded and must not
	// clobber it.
	overwrite uint64
}

// adopts reports whether msg's placement is news to the record: a newer
// epoch or, at the same epoch, nodes or geometry the record lacks.
func (r stripeRecord) adopts(msg *wire.Msg) bool {
	e := msg.Loc.Epoch
	return e > r.Loc.Epoch || e == r.Loc.Epoch && (len(r.Loc.Nodes) == 0 || r.K == 0 && msg.K != 0)
}

// overwrittenBy reports whether msg is a client full-block write that
// raises the record's overwrite epoch.
func (r stripeRecord) overwrittenBy(msg *wire.Msg) bool {
	e := msg.Loc.Epoch
	return msg.Kind == wire.KWriteBlock && e >= r.Loc.Epoch && e > r.overwrite
}

// learn is the one writer of the placement table. It folds the
// placement msg carries into the stripe's record and returns the
// stripe's epoch afterwards. It adopts only what adopts allows, keeping
// the known K/M when msg carries none, so an older placement is ignored,
// never an error. A durable OSD journals the new placement under the
// write lock before adopting it, so journal order is adoption order,
// and adopts nothing if that fails; a message that changes nothing
// takes only the read lock and never reaches the engine. Messages
// without a placement are ignored.
func (o *OSD) learn(msg *wire.Msg) (uint64, error) {
	if len(msg.Loc.Nodes) == 0 {
		return 0, nil
	}
	key := stripeKey{msg.Block.Ino, msg.Block.Stripe}
	o.placeMu.RLock()
	rec := o.places[key]
	o.placeMu.RUnlock()
	if !rec.adopts(msg) && !rec.overwrittenBy(msg) {
		return rec.Loc.Epoch, nil
	}
	o.placeMu.Lock()
	defer o.placeMu.Unlock()
	rec = o.places[key]
	if rec.adopts(msg) {
		next := rec.Placement
		if msg.K != 0 {
			next.K, next.M = int(msg.K), int(msg.M)
		}
		next.Loc = wire.StripeLoc{Nodes: slices.Clone(msg.Loc.Nodes), Epoch: msg.Loc.Epoch}
		if o.eng != nil {
			if err := o.journal(key, next); err != nil {
				return rec.Loc.Epoch, err
			}
		}
		rec.Placement = next
	}
	if rec.overwrittenBy(msg) {
		rec.overwrite = msg.Loc.Epoch
	}
	o.places[key] = rec
	return rec.Loc.Epoch, nil
}

// journal records the placement learn is adopting for a stripe in the
// storage engine, whose last record per stripe is what a reopen
// restores. Before its geometry is known the record carries K zero; its
// epoch still fences stale clients after a reopen and tells Resilver
// whether the local copy is current. Epoch 0 without geometry says
// nothing and is not journaled.
func (o *OSD) journal(key stripeKey, p update.Placement) error {
	if p.K == 0 && p.Loc.Epoch == 0 {
		return nil
	}
	return o.eng.RememberPlacement(key.ino, key.stripe, store.Placement{
		K: p.K, M: p.M, Epoch: p.Loc.Epoch, Nodes: p.Loc.Nodes,
	})
}

// Placement returns the newest placement this OSD has learned for b's
// stripe, and whether its nodes and geometry are both known. Loc.Epoch
// is the stripe's epoch here either way (0 if none was ever learned).
func (o *OSD) Placement(b wire.BlockID) (update.Placement, bool) {
	o.placeMu.RLock()
	rec := o.places[stripeKey{b.Ino, b.Stripe}]
	o.placeMu.RUnlock()
	return rec.Placement, rec.K > 0 && len(rec.Loc.Nodes) > 0
}

// beginMutation registers an in-flight client-boundary mutation for the
// stripe. It MUST be called before the request's epoch check: a fence
// that bumps the epoch and then waits for quiescence is thereby
// guaranteed to either see this request's registration or have it
// rejected as stale.
func (o *OSD) beginMutation(key stripeKey) {
	o.inflightMu.Lock()
	o.inflight[key]++
	o.inflightMu.Unlock()
}

func (o *OSD) endMutation(key stripeKey) {
	o.inflightMu.Lock()
	if o.inflight[key]--; o.inflight[key] <= 0 {
		delete(o.inflight, key)
		o.inflightCond.Broadcast()
	}
	o.inflightMu.Unlock()
}

// awaitQuiescent blocks until no client-boundary mutation is executing
// for the stripe. Called by the KEpochUpdate fence after the epoch bump,
// so every mutation this OSD ever acknowledged for the stripe has fully
// landed when the fence reply goes out.
func (o *OSD) awaitQuiescent(key stripeKey) {
	o.inflightMu.Lock()
	for o.inflight[key] > 0 {
		o.inflightCond.Wait()
	}
	o.inflightMu.Unlock()
}

// checkEpoch learns a client-boundary request's placement and validates
// its epoch against the stripe's. It returns a structured stale reply
// for an outdated placement, an error reply when a durable OSD cannot
// journal the placement, nil otherwise. Strategy-internal forwards are
// exempt (see the package comment).
func (o *OSD) checkEpoch(msg *wire.Msg) *wire.Resp {
	cur, err := o.learn(msg)
	if err != nil {
		return wire.ErrorResp(err)
	}
	if msg.Loc.Epoch < cur {
		return wire.StaleEpochResp(msg.Block, msg.Loc.Epoch, cur)
	}
	return nil
}

// Handler dispatches inbound messages. ctx is the caller's context on
// the in-process transport (cancellation propagates into strategy
// forwards) and a background context on TCP.
func (o *OSD) Handler(ctx context.Context, msg *wire.Msg) *wire.Resp {
	switch msg.Kind {
	case wire.KWriteBlock:
		// Normal write of a freshly encoded stripe member: a large
		// sequential write (§4 "Normal Write"). Registered in-flight
		// before the epoch check so an epoch fence can wait it out.
		key := stripeKey{msg.Block.Ino, msg.Block.Stripe}
		o.beginMutation(key)
		defer o.endMutation(key)
		if stale := o.checkEpoch(msg); stale != nil {
			return stale
		}
		return o.storeBlock(msg)
	case wire.KUpdate:
		key := stripeKey{msg.Block.Ino, msg.Block.Stripe}
		o.beginMutation(key)
		defer o.endMutation(key)
		if stale := o.checkEpoch(msg); stale != nil {
			return stale
		}
		cost, err := o.strategy.Update(ctx, msg)
		if err != nil {
			return wire.ErrorResp(err)
		}
		return &wire.Resp{Cost: cost}
	case wire.KRead:
		// Reads are epoch-checked too (when the client ships its cached
		// placement): after a repair or drain moves the block, a stale
		// client must re-resolve instead of reading a retired copy
		// forever — the per-stripe cutover the repair queue relies on.
		if stale := o.checkEpoch(msg); stale != nil {
			return stale
		}
		if end := uint64(msg.Off) + uint64(msg.Size); end > uint64(o.blockSize) {
			return wire.ErrorResp(fmt.Errorf("osd%d: read [%d,%d) of %v beyond the %d-byte block", o.id, msg.Off, end, msg.Block, o.blockSize))
		}
		return viewResp(o.strategy.Read(msg.Block, msg.Off, int(msg.Size)))
	case wire.KEpochUpdate:
		// The new placement also re-routes the strategy's asynchronous
		// deltas to the new member: they read the same table.
		if _, err := o.learn(msg); err != nil {
			return wire.ErrorResp(err)
		}
		// Fence semantics: once the epoch is bumped, wait for any
		// mutation that passed the old epoch check to finish. When this
		// reply goes out, the stripe's client-visible state on this OSD
		// is final — the drain engine's post-fence refetch depends on
		// it.
		o.awaitQuiescent(stripeKey{msg.Block.Ino, msg.Block.Stripe})
		return &wire.Resp{}
	case wire.KBlockFetch:
		size := o.store.Size(msg.Block)
		if size < 0 {
			return wire.NotFoundResp(o.id, msg.Block)
		}
		if msg.Flag&wire.FetchReadThrough != 0 {
			// Drain sources a live node: serve base content plus any
			// pending data-log overlays (read-your-writes), so the
			// migrated copy carries updates still buffered here.
			return viewResp(o.strategy.Read(msg.Block, 0, size))
		}
		return viewResp(o.store.View(msg.TrafficClass(), msg.Block, 0, size, false))
	case wire.KBlockStore:
		if msg.Flag&wire.StoreUnlessOverwritten != 0 {
			// A drain carrying over fenced source content: a client
			// full write at the current epoch supersedes it.
			o.placeMu.RLock()
			overwrite := o.places[stripeKey{msg.Block.Ino, msg.Block.Stripe}].overwrite
			o.placeMu.RUnlock()
			if msg.Loc.Epoch > 0 && overwrite >= msg.Loc.Epoch {
				return &wire.Resp{Val: 1} // acknowledged, intentionally not applied
			}
		}
		return o.storeBlock(msg)
	case wire.KDrainLogs:
		dead := decodeDeadList(msg.Data)
		if err := o.strategy.Drain(ctx, int(msg.Flag), dead); err != nil {
			return wire.ErrorResp(err)
		}
		return &wire.Resp{}
	case wire.KPing:
		return &wire.Resp{Val: int64(o.id)}
	default:
		// A strategy forward carries the placement of the request that
		// caused it: learned like any other, never rejected for its
		// epoch.
		if _, err := o.learn(msg); err != nil {
			return wire.ErrorResp(err)
		}
		return o.strategy.Handle(ctx, msg)
	}
}

// storeBlock writes the whole block a KWriteBlock or KBlockStore
// carries. The request's buffer becomes the block when its transport
// offers it (wire.Msg.TakeBody) and the store is in memory; otherwise
// the store copies the payload.
func (o *OSD) storeBlock(msg *wire.Msg) *wire.Resp {
	cost, err := o.store.WriteFull(msg.TrafficClass(), msg.Block, msg.Data, msg.TakeBody(), true)
	if err != nil {
		return wire.ErrorResp(err)
	}
	return &wire.Resp{Cost: cost}
}

// viewResp replies with read bytes and attaches their release, which
// the transport runs once the payload has left (TCP) or the caller
// releases the reply (in process).
func viewResp(data []byte, release func(), cost time.Duration, err error) *wire.Resp {
	if err != nil {
		return wire.ErrorResp(err)
	}
	resp := &wire.Resp{Data: data, Cost: cost}
	resp.AttachRelease(release)
	return resp
}

// Close stops the strategy's background workers and, for durable OSDs,
// checkpoints and closes the storage engine. Idempotent: a crashed OSD
// being replaced by Reinstate may be closed again harmlessly.
func (o *OSD) Close() {
	o.closeOnce.Do(func() {
		o.strategy.Close()
		if o.eng != nil {
			o.eng.Close()
		}
	})
}

// Crash simulates a kill -9: the storage engine stops persisting
// anything beyond what already hit the disk, then the OSD shuts down.
// Whatever the WAL and segment files contain at this instant is exactly
// what a subsequent NewOSDAt on the same directory recovers.
func (o *OSD) Crash() {
	if o.eng != nil {
		o.eng.Crash()
	}
	o.Close()
}

// encodeDeadList/decodeDeadList pack failed node ids into a byte payload
// for KDrainLogs.
func encodeDeadList(dead []wire.NodeID) []byte {
	out := make([]byte, 0, 4*len(dead))
	for _, d := range dead {
		out = append(out, byte(d), byte(d>>8), byte(d>>16), byte(d>>24))
	}
	return out
}

func decodeDeadList(b []byte) []wire.NodeID {
	out := make([]wire.NodeID, 0, len(b)/4)
	for i := 0; i+4 <= len(b); i += 4 {
		out = append(out, wire.NodeID(uint32(b[i])|uint32(b[i+1])<<8|uint32(b[i+2])<<16|uint32(b[i+3])<<24))
	}
	return out
}

// SetListenAddr records the address this OSD's TCP server is reachable
// at. Subsequent heartbeats carry it, which is how the MDS's address map
// (wire.KResolveAddr) learns where every node lives — the self-discovery
// that lets clients follow replacement nodes with no manual SetAddr.
func (o *OSD) SetListenAddr(addr string) {
	o.addrMu.Lock()
	o.listenAddr = addr
	o.addrMu.Unlock()
}

// ListenAddr returns the advertised listen address ("" when in-process).
func (o *OSD) ListenAddr() string {
	o.addrMu.Lock()
	defer o.addrMu.Unlock()
	return o.listenAddr
}

// Heartbeat sends one liveness report to the MDS, carrying the OSD's
// advertised listen address (if any) so the MDS address map stays
// current. From is set explicitly because the TCP transport, unlike the
// in-process one, does not stamp the sender.
func (o *OSD) Heartbeat(ctx context.Context) error {
	resp, err := o.rpc.Call(ctx, wire.MDSNode, &wire.Msg{Kind: wire.KMDSHeartbeat, From: o.id, Name: o.ListenAddr()})
	if err != nil {
		return err
	}
	return resp.Error()
}

// StartHeartbeats sends periodic heartbeats until stop is closed (used
// by the TCP deployment; the in-process harness drives liveness
// directly).
func (o *OSD) StartHeartbeats(interval time.Duration, stop <-chan struct{}) {
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				_ = o.Heartbeat(context.Background())
			}
		}
	}()
}
