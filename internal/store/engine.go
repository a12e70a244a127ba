package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/framelog"
	"repro/internal/gf256"
	"repro/internal/wire"
)

// ErrCrashed is returned by every mutator after Crash froze the engine.
// It wraps wire.ErrUnreachable: a crashed engine belongs to a node that
// is going down, so a request it refuses is classified across the wire
// (wire.ErrorResp) the way the node's transport failure is a moment
// later — a transient outage the caller re-resolves around.
var ErrCrashed = fmt.Errorf("store: engine crashed: %w", wire.ErrUnreachable)

// pageNil marks a block page that was never written: its logical
// content is zeros and it has no backing page in the file.
const pageNil = ^uint32(0)

// Options tunes the engine. Zero values select the defaults.
type Options struct {
	// PageSize is the block-file page size in bytes (default 16 KiB).
	PageSize int
	// Frames is the buffer-pool capacity in pages (default 2048).
	Frames int
}

func (o Options) withDefaults() Options {
	if o.PageSize <= 0 {
		o.PageSize = 16 << 10
	}
	if o.Frames <= 0 {
		o.Frames = 2048
	}
	return o
}

// Stats counts the engine's real I/O.
type Stats struct {
	PageHits    int64 // buffer-pool hits
	PageMisses  int64 // page faults (real reads)
	Writebacks  int64 // dirty pages written back
	WALRecords  int64
	WALBytes    int64
	WALSyncs    int64
	SegAppends  int64
	SegBytes    int64
	Checkpoints int64
	// Recovery counters from the last Open.
	RedoneRecords  int64 // intact WAL records redone
	ReplayEntries  int64 // unfolded segment entries recovered
	CompactedFiles int64
	CompactedBytes int64
}

// Engine is the per-OSD durable storage engine: the paged block file
// with its WAL (block contents), the journaled stripe placements
// (rejoin state), and the log segment files (pool contents). One engine
// owns one data directory; Open recovers whatever a previous
// incarnation left there. The engine keeps no placement rule of its
// own: it records the placements its owner adopted, and the last record
// for a stripe wins.
type Engine struct {
	dir  string
	opts Options

	mu      sync.Mutex
	crashed bool
	wal     *framelog.Log
	pf      *pageFile
	blocks  map[wire.BlockID]*blockMeta
	places  map[stripeKey]Placement
	era     uint32
	seq     uint64
	segs    map[segKey]*segFile
	stats   Stats

	// scratch is Fold's read–fold–write buffer, reused under mu.
	scratch []byte

	replayEntries []SegEntry
	replayFiles   []string

	compactStop chan struct{}
	compactDone chan struct{}
}

// Open opens (or creates) the engine at dir and runs crash recovery:
// load the last checkpoint, redo the committed WAL tail through the
// normal write path, truncate anything torn, and scan the segment
// files for unfolded log entries (exposed via Replay for the owner to
// feed back into its pools).
func Open(dir string, opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(filepath.Join(dir, "seg"), 0o755); err != nil {
		return nil, err
	}
	m, err := readMeta(dir)
	if err != nil {
		return nil, err
	}
	pf, err := openPageFile(filepath.Join(dir, "blocks.dat"), opts.PageSize, opts.Frames)
	if err != nil {
		return nil, err
	}
	pf.npages = m.npages
	pf.free = m.free
	e := &Engine{
		dir:    dir,
		opts:   opts,
		pf:     pf,
		blocks: m.blocks,
		places: m.places,
		era:    m.era + 1,
		seq:    m.seq,
		segs:   make(map[segKey]*segFile),
	}
	// Persist the era bump before anything else writes: segment files
	// created by this incarnation must never collide with a previous
	// era's names, even if we crash before the first checkpoint.
	m.era = e.era
	if err := writeMeta(dir, m); err != nil {
		pf.close()
		return nil, err
	}
	e.wal, err = framelog.Open(filepath.Join(dir, "wal.bin"), func(kind byte, payload []byte) bool {
		e.redo(kind, payload)
		e.stats.RedoneRecords++
		return true
	})
	if err != nil {
		pf.close()
		return nil, err
	}
	ents, files, err := scanSegments(dir)
	if err != nil {
		e.closeFiles()
		return nil, err
	}
	e.replayEntries, e.replayFiles = ents, files
	e.stats.ReplayEntries = int64(len(ents))
	for _, se := range ents {
		if se.Seq >= e.seq {
			e.seq = se.Seq + 1
		}
	}
	return e, nil
}

// redo applies one committed WAL record through the unlogged write
// path. Redo is idempotent: records are absolute (no deltas), so pages
// already written back before the crash are rewritten with identical
// bytes.
func (e *Engine) redo(kind byte, payload []byte) {
	switch kind {
	case opWrite:
		if id, blockLen, off, data, err := decodeWrite(payload); err == nil {
			e.applyWrite(id, blockLen, off, data)
		}
	case opDelete:
		if len(payload) >= blockIDLen {
			e.applyDelete(getBlockID(payload))
		}
	case opEnsure:
		if id, size, err := decodeEnsure(payload); err == nil {
			e.applyEnsure(id, size)
		}
	case opPlacement:
		if ino, stripe, p, err := decodePlacement(payload); err == nil {
			e.places[stripeKey{ino, stripe}] = p
		}
	}
}

// ---- block mutators (WAL-before-data) ----

// Ensure creates a zero-filled block of the given size if absent.
func (e *Engine) Ensure(id wire.BlockID, size uint32) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		return ErrCrashed
	}
	if _, ok := e.blocks[id]; ok {
		return nil
	}
	var head [headCap]byte
	if err := e.logAppend(opEnsure, appendEnsure(head[:0], id, size), nil); err != nil {
		return err
	}
	e.applyEnsure(id, size)
	return nil
}

// WriteRange writes data at off, extending the block as needed.
func (e *Engine) WriteRange(id wire.BlockID, off uint32, data []byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		return ErrCrashed
	}
	blockLen := off + uint32(len(data))
	if bm, ok := e.blocks[id]; ok && bm.length > blockLen {
		blockLen = bm.length
	}
	return e.writeLocked(id, blockLen, off, data)
}

// WriteFull replaces the whole block.
func (e *Engine) WriteFull(id wire.BlockID, data []byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		return ErrCrashed
	}
	return e.writeLocked(id, uint32(len(data)), 0, data)
}

// Overwrite writes data at off, within the block, and fills delta with
// old ⊕ new: the old bytes are read straight into delta. Its WAL
// record is WriteRange's.
func (e *Engine) Overwrite(id wire.BlockID, off uint32, data, delta []byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		return ErrCrashed
	}
	bm, err := e.blockSpan(id, off, len(data))
	if err != nil {
		return err
	}
	delta = delta[:len(data)]
	if err := e.readInto(bm, off, delta); err != nil {
		return err
	}
	if err := e.writeLocked(id, bm.length, off, data); err != nil {
		return err
	}
	gf256.XorSlice(delta, data)
	return nil
}

// Fold sets the range at off, within the block, to itself ⊕ c·delta:
// read into the engine's scratch, fold, and write back, logging the
// folded bytes as WriteRange would.
func (e *Engine) Fold(id wire.BlockID, off uint32, c byte, delta []byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		return ErrCrashed
	}
	bm, err := e.blockSpan(id, off, len(delta))
	if err != nil {
		return err
	}
	if cap(e.scratch) < len(delta) {
		e.scratch = make([]byte, len(delta))
	}
	p := e.scratch[:len(delta)]
	if err := e.readInto(bm, off, p); err != nil {
		return err
	}
	gf256.MulAddSlice(c, p, delta)
	return e.writeLocked(id, bm.length, off, p)
}

// blockSpan returns the metadata of the block holding [off, off+n), or
// an error when it is absent or shorter. Caller holds mu.
func (e *Engine) blockSpan(id wire.BlockID, off uint32, n int) (*blockMeta, error) {
	bm := e.blocks[id]
	if bm == nil {
		return nil, fmt.Errorf("store: block %v not found", id)
	}
	if end := uint64(off) + uint64(n); end > uint64(bm.length) {
		return nil, fmt.Errorf("store: read [%d,%d) past block length %d", off, end, bm.length)
	}
	return bm, nil
}

// writeLocked logs, then applies, one write of data at off that leaves
// the block blockLen bytes long. Caller holds mu.
func (e *Engine) writeLocked(id wire.BlockID, blockLen, off uint32, data []byte) error {
	var head [headCap]byte
	if err := e.logAppend(opWrite, appendWrite(head[:0], id, blockLen, off), data); err != nil {
		return err
	}
	return e.applyWrite(id, blockLen, off, data)
}

// Delete removes a block and frees its pages.
func (e *Engine) Delete(id wire.BlockID) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		return ErrCrashed
	}
	if _, ok := e.blocks[id]; !ok {
		return nil
	}
	var head [headCap]byte
	if err := e.logAppend(opDelete, appendBlockID(head[:0], id), nil); err != nil {
		return err
	}
	e.applyDelete(id)
	return nil
}

// logAppend appends one WAL record, head followed by data.
func (e *Engine) logAppend(kind byte, head, data []byte) error {
	err := e.wal.Append(kind, head, data)
	e.stats.WALRecords, e.stats.WALBytes, e.stats.WALSyncs = e.wal.Stats()
	return err
}

func (e *Engine) applyEnsure(id wire.BlockID, size uint32) {
	if _, ok := e.blocks[id]; ok {
		return
	}
	bm := &blockMeta{length: size}
	for i := 0; i < pagesFor(size, e.opts.PageSize); i++ {
		bm.pages = append(bm.pages, pageNil)
	}
	e.blocks[id] = bm
}

func (e *Engine) applyWrite(id wire.BlockID, blockLen, off uint32, data []byte) error {
	bm := e.blocks[id]
	if bm == nil {
		bm = &blockMeta{}
		e.blocks[id] = bm
	}
	want := pagesFor(blockLen, e.opts.PageSize)
	for len(bm.pages) < want {
		bm.pages = append(bm.pages, pageNil)
	}
	for len(bm.pages) > want {
		last := bm.pages[len(bm.pages)-1]
		if last != pageNil {
			e.pf.release(last)
		}
		bm.pages = bm.pages[:len(bm.pages)-1]
	}
	bm.length = blockLen
	ps := uint32(e.opts.PageSize)
	for n := uint32(0); n < uint32(len(data)); {
		pi := (off + n) / ps
		po := (off + n) % ps
		chunk := ps - po
		if rem := uint32(len(data)) - n; chunk > rem {
			chunk = rem
		}
		fresh := bm.pages[pi] == pageNil
		if fresh {
			bm.pages[pi] = e.pf.alloc()
		}
		fr, err := e.pf.pin(bm.pages[pi], fresh || (po == 0 && chunk == ps))
		if err != nil {
			return err
		}
		copy(fr.data[po:po+chunk], data[n:n+chunk])
		fr.dirty = true
		e.pf.unpin(fr)
		n += chunk
	}
	e.stats.PageHits = e.pf.hits
	e.stats.PageMisses = e.pf.misses
	e.stats.Writebacks = e.pf.writebacks
	return nil
}

func (e *Engine) applyDelete(id wire.BlockID) {
	bm := e.blocks[id]
	if bm == nil {
		return
	}
	for _, pg := range bm.pages {
		if pg != pageNil {
			e.pf.release(pg)
		}
	}
	delete(e.blocks, id)
}

// ---- block readers ----

// ReadInto fills dst with the block's bytes at off; pages never written
// read as zeros.
func (e *Engine) ReadInto(id wire.BlockID, off uint32, dst []byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	bm, err := e.blockSpan(id, off, len(dst))
	if err != nil {
		return err
	}
	return e.readInto(bm, off, dst)
}

// ReadRange is ReadInto into a fresh buffer of size bytes. Only the
// benchmark's store probe calls it; it goes once that probe reads into
// a reused buffer (ROADMAP, narrow items).
func (e *Engine) ReadRange(id wire.BlockID, off uint32, size int) ([]byte, error) {
	out := make([]byte, size)
	if err := e.ReadInto(id, off, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Snapshot returns a copy of the whole block.
func (e *Engine) Snapshot(id wire.BlockID) ([]byte, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	bm := e.blocks[id]
	if bm == nil {
		return nil, false
	}
	out := make([]byte, bm.length)
	if err := e.readInto(bm, 0, out); err != nil {
		return nil, false
	}
	return out, true
}

func (e *Engine) readInto(bm *blockMeta, off uint32, dst []byte) error {
	ps := uint32(e.opts.PageSize)
	for n := uint32(0); n < uint32(len(dst)); {
		pi := (off + n) / ps
		po := (off + n) % ps
		chunk := ps - po
		if rem := uint32(len(dst)) - n; chunk > rem {
			chunk = rem
		}
		if bm.pages[pi] == pageNil {
			for i := n; i < n+chunk; i++ {
				dst[i] = 0
			}
		} else {
			fr, err := e.pf.pin(bm.pages[pi], false)
			if err != nil {
				return err
			}
			copy(dst[n:n+chunk], fr.data[po:po+chunk])
			e.pf.unpin(fr)
		}
		n += chunk
	}
	e.stats.PageHits = e.pf.hits
	e.stats.PageMisses = e.pf.misses
	return nil
}

// Has reports whether the block exists.
func (e *Engine) Has(id wire.BlockID) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, ok := e.blocks[id]
	return ok
}

// Size returns the block length, or -1 if absent.
func (e *Engine) Size(id wire.BlockID) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if bm, ok := e.blocks[id]; ok {
		return int(bm.length)
	}
	return -1
}

// Blocks lists every stored block id.
func (e *Engine) Blocks() []wire.BlockID {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]wire.BlockID, 0, len(e.blocks))
	for id := range e.blocks {
		out = append(out, id)
	}
	return out
}

// ---- rejoin state: placements ----

// RememberPlacement durably records the placement its owner adopted for
// a stripe. The record replaces whatever the stripe held before, on
// reopen too (last record wins), so the owner decides which placement
// is newer and journals in adoption order. A placement with K zero
// records nodes and epoch whose geometry is not yet known.
func (e *Engine) RememberPlacement(ino uint64, stripe uint32, p Placement) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.crashed {
		return ErrCrashed
	}
	var head [headCap]byte
	if err := e.logAppend(opPlacement, appendPlacement(head[:0], ino, stripe, p), nil); err != nil {
		return err
	}
	e.places[stripeKey{ino, stripe}] = p
	return nil
}

// ForEachPlacement visits every persisted placement.
func (e *Engine) ForEachPlacement(fn func(ino uint64, stripe uint32, p Placement)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for k, p := range e.places {
		fn(k.Ino, k.Stripe, p)
	}
}

// ---- lifecycle ----

// Checkpoint makes the WAL redundant: write back every dirty page,
// fsync the block file, atomically persist the metadata, then truncate
// the WAL. Data-before-meta-before-WAL-reset ordering means a crash at
// any point recovers to a consistent state.
func (e *Engine) Checkpoint() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.checkpointLocked()
}

func (e *Engine) checkpointLocked() error {
	if e.crashed {
		return ErrCrashed
	}
	if err := e.pf.flush(); err != nil {
		return err
	}
	if err := e.pf.sync(); err != nil {
		return err
	}
	m := &meta{
		era:    e.era,
		seq:    e.seq,
		npages: e.pf.npages,
		free:   e.pf.free,
		blocks: e.blocks,
		places: e.places,
	}
	if err := writeMeta(e.dir, m); err != nil {
		return err
	}
	if err := e.wal.Reset(); err != nil {
		return err
	}
	e.stats.Checkpoints++
	e.stats.Writebacks = e.pf.writebacks
	return nil
}

// Crash freezes the engine, simulating kill -9: every subsequent
// mutation fails with ErrCrashed and Close skips the checkpoint, so
// whatever reached the files via write(2) is exactly what the next
// Open recovers.
func (e *Engine) Crash() {
	e.mu.Lock()
	e.crashed = true
	e.mu.Unlock()
	e.stopCompactor()
}

// Crashed reports whether Crash froze the engine.
func (e *Engine) Crashed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.crashed
}

// Close checkpoints (unless crashed) and releases the files.
func (e *Engine) Close() error {
	e.stopCompactor()
	e.mu.Lock()
	defer e.mu.Unlock()
	var err error
	if !e.crashed {
		err = e.checkpointLocked()
	}
	e.closeFiles()
	return err
}

func (e *Engine) closeFiles() {
	if e.wal != nil {
		e.wal.Close()
	}
	if e.pf != nil {
		e.pf.close()
	}
	for _, sf := range e.segs {
		sf.log.Close()
	}
}

// Stats returns a snapshot of the engine's I/O counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.stats
	s.PageHits, s.PageMisses, s.Writebacks = e.pf.hits, e.pf.misses, e.pf.writebacks
	return s
}

// Dir returns the engine's data directory.
func (e *Engine) Dir() string { return e.dir }

func pagesFor(length uint32, pageSize int) int {
	return int((int64(length) + int64(pageSize) - 1) / int64(pageSize))
}
