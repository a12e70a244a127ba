// Package blockstore keeps the real contents of the blocks an OSD hosts.
//
// Contents live in memory by default (the substitute for the testbed's
// SSD/HDD data partitions) or, when the OSD is opened with a data
// directory, in the durable page/WAL engine of internal/store — the
// same API either way, so strategies never know which backend runs.
// Every access is priced through the OSD's device model, so
// read/write/overwrite workload counters in the paper's Table 1 fall
// out of actually executing the update algorithms; with the durable
// backend the priced charges correspond to real file I/O.
//
// Every update method is built from the two in-place operations the
// store offers: Overwrite (write a data range, yield its delta
// Δd = d′ ⊕ d into the caller's buffer) and Fold (fold a
// coefficient-scaled delta into a parity range, p′ = p ⊕ coeff·Δd,
// Eq. 2), each implemented by the backend itself: the in-memory backend
// folds or overwrites in place, one pass over the block's bytes with no
// fresh slice; the durable engine reads the old bytes into the caller's
// delta, or folds through one reused scratch. The methods differ only
// in when and where they schedule them.
//
// Reads either fill the caller's bytes (ReadInto: a reply buffer, a
// decode input) or take a read-only view with a release (View). The
// in-memory backend serves a view from the block itself, uncopied, and
// keeps it intact by copy-on-write: while any view of a block is lent,
// a write first moves the block to a fresh buffer. The durable engine
// fills a reply buffer for a view.
//
// A whole-block write may hand the store the buffer its data lives in
// (WriteFull's free): the in-memory backend keeps that buffer as the
// block instead of copying it, and gives it back once the block no
// longer holds it and no view of it is lent. The durable engine copies
// the data into its pages and gives the buffer back at once.
package blockstore

import (
	"crypto/subtle"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/device"
	"repro/internal/gf256"
	"repro/internal/keylock"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wire"
)

// backend holds block contents. The in-memory map (memBackend) and the
// durable engine (*store.Engine) implement it. The Store calls every
// method that touches a block's bytes under that block's mutex, which
// also makes its batches atomic.
type backend interface {
	Ensure(id wire.BlockID, size uint32) error
	ReadInto(id wire.BlockID, off uint32, dst []byte) error
	WriteRange(id wire.BlockID, off uint32, data []byte) error
	WriteFull(id wire.BlockID, data []byte) error
	// Overwrite writes data at off in place and fills delta with
	// old ⊕ new; Fold sets the range at off to itself ⊕ c·delta. Both
	// refuse a range outside the block.
	Overwrite(id wire.BlockID, off uint32, data, delta []byte) error
	Fold(id wire.BlockID, off uint32, c byte, delta []byte) error
	Delete(id wire.BlockID) error
	Snapshot(id wire.BlockID) ([]byte, bool)
	Has(id wire.BlockID) bool
	Size(id wire.BlockID) int
	Blocks() []wire.BlockID
}

// Store is the per-OSD block container. Safe for concurrent use: every
// access to a block's bytes runs under its block's mutex, then the
// backend, then the device charge.
type Store struct {
	dev   *device.Device
	be    backend
	locks keylock.Table[wire.BlockID]
}

// Extent is one byte range of a block: the payload of an Overwrite or
// Fold. Coeff is the GF(2⁸) coefficient a Fold scales Data by before
// folding it in; Overwrite ignores it.
type Extent struct {
	Off   uint32
	Coeff byte
	Data  []byte
}

// New creates an in-memory store charging the given device.
func New(dev *device.Device) *Store {
	return &Store{dev: dev, be: &memBackend{blocks: make(map[wire.BlockID]*memBlock)}}
}

// NewDurable creates a store backed by the persistent engine: contents
// survive process crashes, device charges stay identical.
func NewDurable(dev *device.Device, eng *store.Engine) *Store { return &Store{dev: dev, be: eng} }

// Overwrite writes each extent into the block in place and its delta
// old ⊕ new into deltas[i], a buffer of the extent's length that the
// caller supplies and keeps. The block's mutex is held for the whole
// batch, and an absent block is first created zero-filled at
// blockSize. Each extent is charged one random read and one random
// overwrite of its length under class. Overwrite returns how many
// extents it applied: on error it stops, and the deltas and cost of the
// extents before it stand.
func (s *Store) Overwrite(class sim.Class, id wire.BlockID, blockSize int, extents []Extent, deltas [][]byte) (int, time.Duration, error) {
	s.locks.Lock(id)
	defer s.locks.Unlock(id)
	if err := s.be.Ensure(id, uint32(blockSize)); err != nil {
		return 0, 0, err
	}
	var cost time.Duration
	for i, e := range extents {
		if err := s.be.Overwrite(id, e.Off, e.Data, deltas[i]); err != nil {
			return i, cost, err
		}
		cost += s.chargeInPlace(class, len(e.Data))
	}
	return len(extents), cost, nil
}

// Fold folds each extent's Coeff·Data into the block in place: the
// parity update p′ = p ⊕ α·Δd. Locking, creation and per-extent charges
// are Overwrite's, so a Fold of no extents only creates the block,
// uncharged. On error Fold stops and returns the cost of the extents
// already folded.
func (s *Store) Fold(class sim.Class, id wire.BlockID, blockSize int, extents []Extent) (time.Duration, error) {
	s.locks.Lock(id)
	defer s.locks.Unlock(id)
	if err := s.be.Ensure(id, uint32(blockSize)); err != nil {
		return 0, err
	}
	var cost time.Duration
	for _, e := range extents {
		if err := s.be.Fold(id, e.Off, e.Coeff, e.Data); err != nil {
			return cost, err
		}
		cost += s.chargeInPlace(class, len(e.Data))
	}
	return cost, nil
}

// chargeInPlace prices one in-place read-modify-write of n bytes: a
// random read and a random overwrite.
func (s *Store) chargeInPlace(class sim.Class, n int) time.Duration {
	return s.dev.Read(class, int64(n), true) + s.dev.Write(class, int64(n), true, true)
}

// WriteFull stores a whole block, charging the device under class. seq
// selects sequential pricing (the initial stripe write); a rewrite of an
// existing block is an overwrite.
//
// A non-nil free hands the store data's buffer — a request body taken
// from its transport (wire.Msg.TakeBody) — and gives it back: the
// in-memory backend keeps data as the block, uncopied, and runs free
// once the block has moved off it and its last lent view is released;
// the durable engine copies data and runs free before returning, on
// error too. With a nil free the data is copied, and stays the
// caller's.
func (s *Store) WriteFull(class sim.Class, id wire.BlockID, data []byte, free func(), seq bool) (time.Duration, error) {
	var err error
	s.locks.Lock(id)
	existed := s.be.Has(id)
	if mem, ok := s.be.(*memBackend); ok && free != nil {
		mem.put(id, &memBlock{b: data, free: free})
	} else {
		err = s.be.WriteFull(id, data)
		if free != nil {
			free()
		}
	}
	s.locks.Unlock(id)
	if err != nil {
		return 0, err
	}
	return s.dev.Write(class, int64(len(data)), !seq, existed), nil
}

// ReadInto fills dst with [off, off+len(dst)) of a block, charging the
// device under class. random selects the random access cost. Reading an
// absent block returns an error; reading beyond the block's size
// returns an error. The caller owns dst: a reply buffer or a decode
// input.
func (s *Store) ReadInto(class sim.Class, id wire.BlockID, off uint32, dst []byte, random bool) (time.Duration, error) {
	s.locks.Lock(id)
	err := s.be.ReadInto(id, off, dst)
	s.locks.Unlock(id)
	if err != nil {
		return 0, err
	}
	return s.dev.Read(class, int64(len(dst)), random), nil
}

// View returns [off, off+n) of a block as read-only bytes and the
// release that ends the caller's use of them, charging the device as
// ReadInto does; its errors are ReadInto's, with nothing to release.
// The in-memory backend lends the block's own bytes: until the release,
// every write to the block first moves it to a fresh buffer, so the
// view keeps the bytes it was lent. The durable engine keeps its pages
// in frames it cannot lend as one slice, so it fills a transport reply
// buffer instead. The caller never writes into the bytes and runs the
// release once, after its last use of them — for a reply, by attaching
// it (wire.Resp.AttachRelease).
func (s *Store) View(class sim.Class, id wire.BlockID, off uint32, n int, random bool) ([]byte, func(), time.Duration, error) {
	var (
		view    []byte
		release func()
		err     error
	)
	s.locks.Lock(id)
	if mem, ok := s.be.(*memBackend); ok {
		view, release, err = mem.lend(id, off, n)
	} else {
		view, release = transport.ReplyBuf(n)
		if err = s.be.ReadInto(id, off, view); err != nil {
			release()
		}
	}
	s.locks.Unlock(id)
	if err != nil {
		return nil, nil, 0, err
	}
	return view, release, s.dev.Read(class, int64(n), random), nil
}

// WriteRange overwrites [off, off+len(data)) in place, charging the
// device under class — always an overwrite for wear accounting. The
// block is created zero-filled at blockSize if absent (an update may
// precede the full write in replays) and grows to cover the range.
func (s *Store) WriteRange(class sim.Class, id wire.BlockID, off uint32, data []byte, random bool, blockSize int) (time.Duration, error) {
	if need := int(off) + len(data); blockSize < need {
		blockSize = need
	}
	s.locks.Lock(id)
	err := s.be.Ensure(id, uint32(blockSize))
	if err == nil {
		err = s.be.WriteRange(id, off, data)
	}
	s.locks.Unlock(id)
	if err != nil {
		return 0, err
	}
	return s.dev.Write(class, int64(len(data)), random, true), nil
}

// Snapshot returns a copy of the block's content without device charge
// (verification/introspection only).
func (s *Store) Snapshot(id wire.BlockID) ([]byte, bool) {
	s.locks.Lock(id)
	defer s.locks.Unlock(id)
	return s.be.Snapshot(id)
}

// Has reports whether the block exists.
func (s *Store) Has(id wire.BlockID) bool { return s.be.Has(id) }

// Delete removes a block (node failure simulation / cleanup).
func (s *Store) Delete(id wire.BlockID) error {
	s.locks.Lock(id)
	defer s.locks.Unlock(id)
	return s.be.Delete(id)
}

// Blocks returns the IDs of all stored blocks (recovery enumeration).
func (s *Store) Blocks() []wire.BlockID { return s.be.Blocks() }

// Size returns the byte length of a block, or -1 if absent.
func (s *Store) Size(id wire.BlockID) int { return s.be.Size(id) }

// memBackend keeps block contents in memory, the default backend. Its
// lock guards the map and the block pointers in it; a block's bytes are
// guarded by the Store's block mutex, which every caller of a content
// method holds, so accesses to different blocks copy in parallel.
//
// A block's bytes may be lent (lend): while a view of them is out, no
// write touches them. Each write first takes a buffer it may write in
// place (own), moving the block to a fresh one while it is lent.
//
// A block's buffer may be adopted from a transport (Store.WriteFull's
// free). Whatever
// replaces or deletes the block retires its memBlock, and a retired
// adopted buffer goes back to its transport's pool with its last loan:
// at once if none is out, else at the release of the last view.
type memBackend struct {
	mu     sync.RWMutex
	blocks map[wire.BlockID]*memBlock
}

// memBlock is one buffer a block's bytes live in and the views of it
// still lent. A write to a lent block replaces the memBlock, so a
// view's release always counts down the buffer it was lent.
type memBlock struct {
	b []byte
	// free gives an adopted buffer back to its transport; nil for the
	// store's own buffers.
	free func()
	// state counts the views lent, raised under the block mutex and
	// lowered by releases, plus retiredBit once the map no longer holds
	// the block. Zero means a write may touch b in place.
	state atomic.Int32
}

// retiredBit marks a memBlock no longer in the map; no view of it can
// be lent after that.
const retiredBit = 1 << 30

// retire marks blk replaced or deleted, and frees an adopted buffer now
// if no view of it is lent.
func (blk *memBlock) retire() {
	if blk.state.Or(retiredBit) == 0 && blk.free != nil {
		blk.free()
	}
}

// endLoan ends one view's loan, and frees a retired adopted buffer when
// it was the last.
func (blk *memBlock) endLoan() {
	if blk.state.Add(-1) == retiredBit && blk.free != nil {
		blk.free()
	}
}

func (m *memBackend) get(id wire.BlockID) (*memBlock, bool) {
	m.mu.RLock()
	blk, ok := m.blocks[id]
	m.mu.RUnlock()
	return blk, ok
}

// put makes blk the block's buffer and retires the one it replaces.
func (m *memBackend) put(id wire.BlockID, blk *memBlock) {
	m.mu.Lock()
	old := m.blocks[id]
	m.blocks[id] = blk
	m.mu.Unlock()
	if old != nil {
		old.retire()
	}
}

// span returns the block holding [off, off+n), or an error when it is
// absent or shorter.
func (m *memBackend) span(id wire.BlockID, off uint32, n int) (*memBlock, error) {
	blk, ok := m.get(id)
	if !ok {
		return nil, fmt.Errorf("blockstore: %v not found", id)
	}
	if int(off)+n > len(blk.b) {
		return nil, fmt.Errorf("blockstore: read [%d,%d) beyond %v of %d bytes", off, int(off)+n, id, len(blk.b))
	}
	return blk, nil
}

// own returns a buffer of at least need bytes holding the block, for a
// write in place: blk's own, unless it is lent or too short — then a
// fresh one holding the old bytes replaces it (copy-on-write). blk is
// the block's memBlock, nil when it is absent.
func (m *memBackend) own(id wire.BlockID, blk *memBlock, need int) []byte {
	if blk != nil && len(blk.b) >= need && blk.state.Load() == 0 {
		return blk.b
	}
	var old []byte
	if blk != nil {
		old = blk.b
	}
	b := make([]byte, max(need, len(old)))
	copy(b, old)
	m.put(id, &memBlock{b: b})
	return b
}

// ownSpan returns [off, off+n) of the block, owned for a write in
// place, or span's error.
func (m *memBackend) ownSpan(id wire.BlockID, off uint32, n int) ([]byte, error) {
	blk, err := m.span(id, off, n)
	if err != nil {
		return nil, err
	}
	end := int(off) + n
	return m.own(id, blk, end)[off:end], nil
}

// Ensure creates a zero-filled block of size bytes if absent.
func (m *memBackend) Ensure(id wire.BlockID, size uint32) error {
	if _, ok := m.get(id); !ok {
		m.put(id, &memBlock{b: make([]byte, size)})
	}
	return nil
}

// ReadInto copies [off, off+len(dst)) of the block into dst.
func (m *memBackend) ReadInto(id wire.BlockID, off uint32, dst []byte) error {
	blk, err := m.span(id, off, len(dst))
	if err != nil {
		return err
	}
	copy(dst, blk.b[off:])
	return nil
}

// lend returns [off, off+n) of the block's own bytes and the release
// that ends the loan.
func (m *memBackend) lend(id wire.BlockID, off uint32, n int) ([]byte, func(), error) {
	blk, err := m.span(id, off, n)
	if err != nil {
		return nil, nil, err
	}
	end := int(off) + n
	view := blk.b[off:end:end]
	blk.state.Add(1)
	return view, transport.LendRelease(view, blk.endLoan), nil
}

// WriteRange writes data at off in place, growing the block to cover
// it.
func (m *memBackend) WriteRange(id wire.BlockID, off uint32, data []byte) error {
	blk, _ := m.get(id)
	copy(m.own(id, blk, int(off)+len(data))[off:], data)
	return nil
}

// Overwrite makes one pass over the range: delta = old ⊕ new, then the
// new bytes.
func (m *memBackend) Overwrite(id wire.BlockID, off uint32, data, delta []byte) error {
	b, err := m.ownSpan(id, off, len(data))
	if err != nil {
		return err
	}
	subtle.XORBytes(delta[:len(data)], b, data)
	copy(b, data)
	return nil
}

// Fold folds c·delta into the range in place.
func (m *memBackend) Fold(id wire.BlockID, off uint32, c byte, delta []byte) error {
	b, err := m.ownSpan(id, off, len(delta))
	if err != nil {
		return err
	}
	gf256.MulAddSlice(c, b, delta)
	return nil
}

// WriteFull copies data over every byte, so a lent block takes a fresh
// buffer without copying the old bytes into it.
func (m *memBackend) WriteFull(id wire.BlockID, data []byte) error {
	if blk, ok := m.get(id); ok && len(blk.b) == len(data) && blk.state.Load() == 0 {
		copy(blk.b, data)
		return nil
	}
	m.put(id, &memBlock{b: append([]byte(nil), data...)})
	return nil
}

// Delete removes the block, retiring its buffer.
func (m *memBackend) Delete(id wire.BlockID) error {
	m.mu.Lock()
	old := m.blocks[id]
	delete(m.blocks, id)
	m.mu.Unlock()
	if old != nil {
		old.retire()
	}
	return nil
}

// Snapshot returns a copy of the block's bytes.
func (m *memBackend) Snapshot(id wire.BlockID) ([]byte, bool) {
	blk, ok := m.get(id)
	if !ok {
		return nil, false
	}
	return append([]byte(nil), blk.b...), true
}

// Has reports whether the block exists.
func (m *memBackend) Has(id wire.BlockID) bool {
	_, ok := m.get(id)
	return ok
}

// Size returns the block's length, or -1 if absent.
func (m *memBackend) Size(id wire.BlockID) int {
	blk, ok := m.get(id)
	if !ok {
		return -1
	}
	return len(blk.b)
}

// Blocks returns the ids of every block.
func (m *memBackend) Blocks() []wire.BlockID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]wire.BlockID, 0, len(m.blocks))
	for id := range m.blocks {
		out = append(out, id)
	}
	return out
}
