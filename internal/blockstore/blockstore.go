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
package blockstore

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/wire"
)

// Store is the per-OSD block container. Safe for concurrent use; it also
// exposes per-block mutexes so strategies can make read-modify-write
// sequences atomic.
type Store struct {
	dev *device.Device
	eng *store.Engine // nil: in-memory backend

	mu     sync.RWMutex
	blocks map[wire.BlockID]*block
}

// block holds in-memory contents, or (durable backend) only the
// per-block mutex — the bytes then live in the engine.
type block struct {
	mu   sync.Mutex
	data []byte
}

// New creates an in-memory store charging the given device.
func New(dev *device.Device) *Store {
	return &Store{dev: dev, blocks: make(map[wire.BlockID]*block)}
}

// NewDurable creates a store backed by the persistent engine: contents
// survive process crashes, device charges stay identical.
func NewDurable(dev *device.Device, eng *store.Engine) *Store {
	return &Store{dev: dev, eng: eng, blocks: make(map[wire.BlockID]*block)}
}

// Device returns the backing device model.
func (s *Store) Device() *device.Device { return s.dev }

// Engine returns the durable engine, or nil for the in-memory backend.
func (s *Store) Engine() *store.Engine { return s.eng }

func (s *Store) get(id wire.BlockID) *block {
	s.mu.RLock()
	b := s.blocks[id]
	s.mu.RUnlock()
	return b
}

func (s *Store) getOrCreate(id wire.BlockID, size int) *block {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.blocks[id]
	if b == nil {
		b = &block{}
		if s.eng != nil {
			s.eng.Ensure(id, uint32(size))
		} else {
			b.data = make([]byte, size)
		}
		s.blocks[id] = b
	}
	return b
}

// lockTable returns the mutex holder for an engine-backed block that
// already exists durably (e.g. recovered from a previous run).
func (s *Store) lockTable(id wire.BlockID) *block {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.blocks[id]
	if b == nil {
		b = &block{}
		s.blocks[id] = b
	}
	return b
}

// Lock acquires the block's mutex (creating a zero-filled block of the
// given size if absent) and returns the unlock function. Strategies wrap
// read-modify-write cycles with it.
func (s *Store) Lock(id wire.BlockID, size int) func() {
	b := s.getOrCreate(id, size)
	b.mu.Lock()
	return b.mu.Unlock
}

// WriteFull stores a whole block, charging the device under class. seq
// selects sequential pricing (the initial stripe write); a rewrite of an
// existing block is an overwrite.
func (s *Store) WriteFull(class sim.Class, id wire.BlockID, data []byte, seq bool) time.Duration {
	if s.eng != nil {
		existed := s.eng.Has(id)
		b := s.lockTable(id)
		b.mu.Lock()
		s.eng.WriteFull(id, data)
		b.mu.Unlock()
		return s.dev.Write(class, int64(len(data)), !seq, existed)
	}
	s.mu.Lock()
	b := s.blocks[id]
	existed := b != nil
	if b == nil {
		b = &block{}
		s.blocks[id] = b
	}
	s.mu.Unlock()
	b.mu.Lock()
	b.data = append(b.data[:0], data...)
	b.mu.Unlock()
	return s.dev.Write(class, int64(len(data)), !seq, existed)
}

// ReadRange reads [off, off+size) of a block, charging the device under
// class. random selects the random access cost. Reading an absent block
// returns an error; reading beyond the block's size returns an error.
func (s *Store) ReadRange(class sim.Class, id wire.BlockID, off uint32, size int, random bool) ([]byte, time.Duration, error) {
	if s.eng != nil {
		out, err := s.eng.ReadRange(id, off, size)
		if err != nil {
			return nil, 0, err
		}
		return out, s.dev.Read(class, int64(size), random), nil
	}
	b := s.get(id)
	if b == nil {
		return nil, 0, fmt.Errorf("blockstore: %v not found", id)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if int(off)+size > len(b.data) {
		return nil, 0, fmt.Errorf("blockstore: read [%d,%d) beyond %v of %d bytes", off, int(off)+size, id, len(b.data))
	}
	out := append([]byte(nil), b.data[off:int(off)+size]...)
	cost := s.dev.Read(class, int64(size), random)
	return out, cost, nil
}

// ReadRangeNoLock is ReadRange for callers already holding Lock(id).
func (s *Store) ReadRangeNoLock(class sim.Class, id wire.BlockID, off uint32, size int, random bool) ([]byte, time.Duration, error) {
	if s.eng != nil {
		out, err := s.eng.ReadRange(id, off, size)
		if err != nil {
			return nil, 0, err
		}
		return out, s.dev.Read(class, int64(size), random), nil
	}
	b := s.get(id)
	if b == nil {
		return nil, 0, fmt.Errorf("blockstore: %v not found", id)
	}
	if int(off)+size > len(b.data) {
		return nil, 0, fmt.Errorf("blockstore: read [%d,%d) beyond %v of %d bytes", off, int(off)+size, id, len(b.data))
	}
	out := append([]byte(nil), b.data[off:int(off)+size]...)
	cost := s.dev.Read(class, int64(size), random)
	return out, cost, nil
}

// WriteRange overwrites [off, off+len(data)) in place, charging the
// device under class — always an overwrite for wear accounting. The
// block is created zero-filled at blockSize if absent (an update may
// precede the full write in replays).
func (s *Store) WriteRange(class sim.Class, id wire.BlockID, off uint32, data []byte, random bool, blockSize int) (time.Duration, error) {
	need := int(off) + len(data)
	if blockSize < need {
		blockSize = need
	}
	b := s.getOrCreate(id, blockSize)
	b.mu.Lock()
	defer b.mu.Unlock()
	if s.eng != nil {
		if err := s.eng.WriteRange(id, off, data); err != nil {
			return 0, err
		}
		return s.dev.Write(class, int64(len(data)), random, true), nil
	}
	if need > len(b.data) {
		grown := make([]byte, need)
		copy(grown, b.data)
		b.data = grown
	}
	copy(b.data[off:], data)
	return s.dev.Write(class, int64(len(data)), random, true), nil
}

// WriteRangeNoLock is WriteRange for callers already holding Lock(id).
func (s *Store) WriteRangeNoLock(class sim.Class, id wire.BlockID, off uint32, data []byte, random bool) (time.Duration, error) {
	if s.eng != nil {
		if !s.eng.Has(id) {
			return 0, fmt.Errorf("blockstore: %v not found", id)
		}
		if err := s.eng.WriteRange(id, off, data); err != nil {
			return 0, err
		}
		return s.dev.Write(class, int64(len(data)), random, true), nil
	}
	b := s.get(id)
	if b == nil {
		return 0, fmt.Errorf("blockstore: %v not found", id)
	}
	need := int(off) + len(data)
	if need > len(b.data) {
		grown := make([]byte, need)
		copy(grown, b.data)
		b.data = grown
	}
	copy(b.data[off:], data)
	return s.dev.Write(class, int64(len(data)), random, true), nil
}

// Snapshot returns a copy of the block's content without device charge
// (verification/introspection only).
func (s *Store) Snapshot(id wire.BlockID) ([]byte, bool) {
	if s.eng != nil {
		return s.eng.Snapshot(id)
	}
	b := s.get(id)
	if b == nil {
		return nil, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.data...), true
}

// Has reports whether the block exists.
func (s *Store) Has(id wire.BlockID) bool {
	if s.eng != nil {
		return s.eng.Has(id)
	}
	return s.get(id) != nil
}

// Delete removes a block (node failure simulation / cleanup).
func (s *Store) Delete(id wire.BlockID) {
	if s.eng != nil {
		s.eng.Delete(id)
	}
	s.mu.Lock()
	delete(s.blocks, id)
	s.mu.Unlock()
}

// Blocks returns the IDs of all stored blocks (recovery enumeration).
func (s *Store) Blocks() []wire.BlockID {
	if s.eng != nil {
		return s.eng.Blocks()
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]wire.BlockID, 0, len(s.blocks))
	for id := range s.blocks {
		out = append(out, id)
	}
	return out
}

// Size returns the byte length of a block, or -1 if absent.
func (s *Store) Size(id wire.BlockID) int {
	if s.eng != nil {
		return s.eng.Size(id)
	}
	b := s.get(id)
	if b == nil {
		return -1
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.data)
}
