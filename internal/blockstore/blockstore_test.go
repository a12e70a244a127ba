package blockstore

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/wire"
)

func newStore() *Store {
	return New(device.New("test", device.ChameleonSSD()))
}

func bid(i int) wire.BlockID { return wire.BlockID{Ino: 1, Stripe: uint32(i)} }

func TestWriteFullReadBack(t *testing.T) {
	s := newStore()
	data := []byte("hello block store")
	if cost := s.WriteFull(sim.ClassOther, bid(1), data, true); cost <= 0 {
		t.Fatal("write must cost device time")
	}
	got, cost, err := s.ReadRange(sim.ClassOther, bid(1), 6, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "block" || cost <= 0 {
		t.Fatalf("read = %q, cost %v", got, cost)
	}
}

func TestReadMissingBlock(t *testing.T) {
	s := newStore()
	if _, _, err := s.ReadRange(sim.ClassOther, bid(9), 0, 4, true); err == nil {
		t.Fatal("reading absent block must fail")
	}
}

func TestReadBeyondEnd(t *testing.T) {
	s := newStore()
	s.WriteFull(sim.ClassOther, bid(1), make([]byte, 10), true)
	if _, _, err := s.ReadRange(sim.ClassOther, bid(1), 8, 4, true); err == nil {
		t.Fatal("read past end must fail")
	}
}

func TestWriteRangeCreatesAndGrows(t *testing.T) {
	s := newStore()
	if _, err := s.WriteRange(sim.ClassOther, bid(2), 100, []byte{1, 2, 3}, true, 256); err != nil {
		t.Fatal(err)
	}
	if s.Size(bid(2)) != 256 {
		t.Fatalf("size = %d, want 256 (zero-filled to blockSize)", s.Size(bid(2)))
	}
	got, _, err := s.ReadRange(sim.ClassOther, bid(2), 100, 3, true)
	if err != nil || !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("range content wrong: %v %v", got, err)
	}
	// A write past the current size grows the block.
	if _, err := s.WriteRange(sim.ClassOther, bid(2), 300, []byte{9}, true, 256); err != nil {
		t.Fatal(err)
	}
	if s.Size(bid(2)) != 301 {
		t.Fatalf("size = %d after growth", s.Size(bid(2)))
	}
}

func TestOverwriteAccounting(t *testing.T) {
	dev := device.New("d", device.ChameleonSSD())
	s := New(dev)
	s.WriteFull(sim.ClassOther, bid(1), make([]byte, 100), true) // fresh: not an overwrite
	if dev.Stats().Overwrites != 0 {
		t.Fatal("fresh full write must not count as overwrite")
	}
	s.WriteFull(sim.ClassOther, bid(1), make([]byte, 100), true) // rewrite: overwrite
	if dev.Stats().Overwrites != 1 {
		t.Fatal("rewrite must count as overwrite")
	}
	s.WriteRange(sim.ClassOther, bid(1), 0, []byte{1}, true, 100) // in-place: overwrite
	if dev.Stats().Overwrites != 2 {
		t.Fatal("range write must count as overwrite")
	}
}

func TestLockCreatesBlock(t *testing.T) {
	s := newStore()
	unlock := s.Lock(bid(3), 64)
	data, _, err := s.ReadRangeNoLock(sim.ClassOther, bid(3), 0, 64, true)
	unlock()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, make([]byte, 64)) {
		t.Fatal("lock-created block must be zero-filled")
	}
}

func TestNoLockVariantsRequireExistence(t *testing.T) {
	s := newStore()
	if _, _, err := s.ReadRangeNoLock(sim.ClassOther, bid(9), 0, 1, true); err == nil {
		t.Fatal("ReadRangeNoLock of absent block must fail")
	}
	if _, err := s.WriteRangeNoLock(sim.ClassOther, bid(9), 0, []byte{1}, true); err == nil {
		t.Fatal("WriteRangeNoLock of absent block must fail")
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	s := newStore()
	s.WriteFull(sim.ClassOther, bid(1), []byte{1, 2, 3}, true)
	snap, ok := s.Snapshot(bid(1))
	if !ok {
		t.Fatal("snapshot missing")
	}
	snap[0] = 99
	got, _, _ := s.ReadRange(sim.ClassOther, bid(1), 0, 1, true)
	if got[0] != 1 {
		t.Fatal("snapshot must not alias stored data")
	}
	if _, ok := s.Snapshot(bid(9)); ok {
		t.Fatal("snapshot of absent block must report !ok")
	}
}

func TestDeleteAndEnumerate(t *testing.T) {
	s := newStore()
	s.WriteFull(sim.ClassOther, bid(1), []byte{1}, true)
	s.WriteFull(sim.ClassOther, bid(2), []byte{2}, true)
	if len(s.Blocks()) != 2 {
		t.Fatal("enumeration wrong")
	}
	s.Delete(bid(1))
	if s.Has(bid(1)) || !s.Has(bid(2)) {
		t.Fatal("delete wrong")
	}
	if s.Size(bid(1)) != -1 {
		t.Fatal("size of absent block must be -1")
	}
}

func TestConcurrentRangeWrites(t *testing.T) {
	s := newStore()
	s.WriteFull(sim.ClassOther, bid(1), make([]byte, 4096), true)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte(g + 1)}, 64)
			for i := 0; i < 50; i++ {
				off := uint32(g * 512)
				if _, err := s.WriteRange(sim.ClassOther, bid(1), off, payload, true, 4096); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < 8; g++ {
		got, _, err := s.ReadRange(sim.ClassOther, bid(1), uint32(g*512), 64, true)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(g+1) {
			t.Fatalf("region %d corrupted: %d", g, got[0])
		}
	}
}
