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
// Δd = d′ ⊕ d) and Fold (fold a parity delta into a parity range,
// p′ = p ⊕ coeff·Δd, Eq. 2). The methods differ only in when and where
// they schedule them.
package blockstore

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/device"
	"repro/internal/gf256"
	"repro/internal/keylock"
	"repro/internal/sim"
	"repro/internal/store"
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
// Fold, and the delta Overwrite returns.
type Extent struct {
	Off  uint32
	Data []byte
}

// New creates an in-memory store charging the given device.
func New(dev *device.Device) *Store {
	return &Store{dev: dev, be: &memBackend{blocks: make(map[wire.BlockID][]byte)}}
}

// NewDurable creates a store backed by the persistent engine: contents
// survive process crashes, device charges stay identical.
func NewDurable(dev *device.Device, eng *store.Engine) *Store { return &Store{dev: dev, be: eng} }

// Overwrite writes each extent into the block in place and returns, per
// extent, its delta old ⊕ new at the same offset. The block's mutex is
// held for the whole batch, and an absent block is first created
// zero-filled at blockSize. Each extent is charged one random read and
// one random overwrite of its length under class. On error Overwrite
// stops: it returns the deltas and cost of the extents already applied.
func (s *Store) Overwrite(class sim.Class, id wire.BlockID, blockSize int, extents []Extent) ([]Extent, time.Duration, error) {
	s.locks.Lock(id)
	defer s.locks.Unlock(id)
	if err := s.be.Ensure(id, uint32(blockSize)); err != nil {
		return nil, 0, err
	}
	deltas := make([]Extent, 0, len(extents))
	var cost time.Duration
	for _, e := range extents {
		old := make([]byte, len(e.Data)) // kept: it becomes the delta
		err := s.be.ReadInto(id, e.Off, old)
		if err == nil {
			err = s.be.WriteRange(id, e.Off, e.Data)
		}
		if err != nil {
			return deltas, cost, err
		}
		cost += s.chargeInPlace(class, len(e.Data))
		gf256.XorSlice(old, e.Data)
		deltas = append(deltas, Extent{Off: e.Off, Data: old})
	}
	return deltas, cost, nil
}

// Fold XORs each extent into the block in place: the parity update
// p′ = p ⊕ Δp. Locking, creation and per-extent charges are
// Overwrite's, so a Fold of no extents only creates the block,
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
		p := make([]byte, len(e.Data))
		err := s.be.ReadInto(id, e.Off, p)
		if err == nil {
			gf256.XorSlice(p, e.Data)
			err = s.be.WriteRange(id, e.Off, p)
		}
		if err != nil {
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
func (s *Store) WriteFull(class sim.Class, id wire.BlockID, data []byte, seq bool) (time.Duration, error) {
	s.locks.Lock(id)
	existed := s.be.Has(id)
	err := s.be.WriteFull(id, data)
	s.locks.Unlock(id)
	if err != nil {
		return 0, err
	}
	return s.dev.Write(class, int64(len(data)), !seq, existed), nil
}

// ReadInto fills dst with [off, off+len(dst)) of a block, charging the
// device under class. random selects the random access cost. Reading an
// absent block returns an error; reading beyond the block's size
// returns an error. The caller owns dst: a reply buffer, a decode
// input, a read-modify-write scratch.
func (s *Store) ReadInto(class sim.Class, id wire.BlockID, off uint32, dst []byte, random bool) (time.Duration, error) {
	s.locks.Lock(id)
	err := s.be.ReadInto(id, off, dst)
	s.locks.Unlock(id)
	if err != nil {
		return 0, err
	}
	return s.dev.Read(class, int64(len(dst)), random), nil
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
// lock guards the map and the slice headers in it; a block's bytes are
// guarded by the Store's block mutex, which every caller of a content
// method holds, so accesses to different blocks copy in parallel.
type memBackend struct {
	mu     sync.RWMutex
	blocks map[wire.BlockID][]byte
}

func (m *memBackend) get(id wire.BlockID) ([]byte, bool) {
	m.mu.RLock()
	b, ok := m.blocks[id]
	m.mu.RUnlock()
	return b, ok
}

func (m *memBackend) put(id wire.BlockID, b []byte) {
	m.mu.Lock()
	m.blocks[id] = b
	m.mu.Unlock()
}

func (m *memBackend) Ensure(id wire.BlockID, size uint32) error {
	if _, ok := m.get(id); !ok {
		m.put(id, make([]byte, size))
	}
	return nil
}

func (m *memBackend) ReadInto(id wire.BlockID, off uint32, dst []byte) error {
	b, ok := m.get(id)
	if !ok {
		return fmt.Errorf("blockstore: %v not found", id)
	}
	if int(off)+len(dst) > len(b) {
		return fmt.Errorf("blockstore: read [%d,%d) beyond %v of %d bytes", off, int(off)+len(dst), id, len(b))
	}
	copy(dst, b[off:])
	return nil
}

func (m *memBackend) WriteRange(id wire.BlockID, off uint32, data []byte) error {
	b, _ := m.get(id)
	if need := int(off) + len(data); need > len(b) {
		grown := make([]byte, need)
		copy(grown, b)
		b = grown
		m.put(id, b)
	}
	copy(b[off:], data)
	return nil
}

func (m *memBackend) WriteFull(id wire.BlockID, data []byte) error {
	if b, ok := m.get(id); ok && len(b) == len(data) {
		copy(b, data)
		return nil
	}
	m.put(id, append([]byte(nil), data...))
	return nil
}

func (m *memBackend) Delete(id wire.BlockID) error {
	m.mu.Lock()
	delete(m.blocks, id)
	m.mu.Unlock()
	return nil
}

func (m *memBackend) Snapshot(id wire.BlockID) ([]byte, bool) {
	b, ok := m.get(id)
	if !ok {
		return nil, false
	}
	return append([]byte(nil), b...), true
}

func (m *memBackend) Has(id wire.BlockID) bool {
	_, ok := m.get(id)
	return ok
}

func (m *memBackend) Size(id wire.BlockID) int {
	b, ok := m.get(id)
	if !ok {
		return -1
	}
	return len(b)
}

func (m *memBackend) Blocks() []wire.BlockID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]wire.BlockID, 0, len(m.blocks))
	for id := range m.blocks {
		out = append(out, id)
	}
	return out
}
