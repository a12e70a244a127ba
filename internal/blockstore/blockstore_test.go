package blockstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/gf256"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/wire"
)

// eachBackend runs fn against both backends: in memory, and on the
// durable engine in a fresh directory.
func eachBackend(t *testing.T, fn func(t *testing.T, s *Store, dev *device.Device)) {
	t.Run("mem", func(t *testing.T) {
		dev := device.New("test", device.ChameleonSSD())
		fn(t, New(dev), dev)
	})
	t.Run("durable", func(t *testing.T) {
		eng, err := store.Open(t.TempDir(), store.Options{Frames: 64})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		dev := device.New("test", device.ChameleonSSD())
		fn(t, NewDurable(dev, eng), dev)
	})
}

func bid(i int) wire.BlockID { return wire.BlockID{Ino: 1, Stripe: uint32(i)} }

// readRange reads size bytes at off into a fresh buffer.
func readRange(s *Store, id wire.BlockID, off uint32, size int) ([]byte, time.Duration, error) {
	dst := make([]byte, size)
	cost, err := s.ReadInto(sim.ClassOther, id, off, dst, true)
	return dst, cost, err
}

func mustWriteFull(t *testing.T, s *Store, id wire.BlockID, data []byte) {
	t.Helper()
	if _, err := s.WriteFull(sim.ClassOther, id, data, nil, true); err != nil {
		t.Fatal(err)
	}
}

func TestWriteFullReadBack(t *testing.T) {
	eachBackend(t, func(t *testing.T, s *Store, _ *device.Device) {
		data := []byte("hello block store")
		if cost, err := s.WriteFull(sim.ClassOther, bid(1), data, nil, true); err != nil || cost <= 0 {
			t.Fatalf("write must cost device time: %v %v", cost, err)
		}
		got, cost, err := readRange(s, bid(1), 6, 5)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "block" || cost <= 0 {
			t.Fatalf("read = %q, cost %v", got, cost)
		}
	})
}

func TestReadMissingBlock(t *testing.T) {
	eachBackend(t, func(t *testing.T, s *Store, _ *device.Device) {
		if _, _, err := readRange(s, bid(9), 0, 4); err == nil {
			t.Fatal("reading absent block must fail")
		}
	})
}

func TestReadBeyondEnd(t *testing.T) {
	eachBackend(t, func(t *testing.T, s *Store, _ *device.Device) {
		mustWriteFull(t, s, bid(1), make([]byte, 10))
		if _, _, err := readRange(s, bid(1), 8, 4); err == nil {
			t.Fatal("read past end must fail")
		}
	})
}

func TestWriteRangeCreatesAndGrows(t *testing.T) {
	eachBackend(t, func(t *testing.T, s *Store, _ *device.Device) {
		if _, err := s.WriteRange(sim.ClassOther, bid(2), 100, []byte{1, 2, 3}, true, 256); err != nil {
			t.Fatal(err)
		}
		if s.Size(bid(2)) != 256 {
			t.Fatalf("size = %d, want 256 (zero-filled to blockSize)", s.Size(bid(2)))
		}
		got, _, err := readRange(s, bid(2), 100, 3)
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
	})
}

func TestOverwriteAccounting(t *testing.T) {
	eachBackend(t, func(t *testing.T, s *Store, dev *device.Device) {
		mustWriteFull(t, s, bid(1), make([]byte, 100)) // fresh: not an overwrite
		if dev.Stats().Overwrites != 0 {
			t.Fatal("fresh full write must not count as overwrite")
		}
		mustWriteFull(t, s, bid(1), make([]byte, 100)) // rewrite: overwrite
		if dev.Stats().Overwrites != 1 {
			t.Fatal("rewrite must count as overwrite")
		}
		s.WriteRange(sim.ClassOther, bid(1), 0, []byte{1}, true, 100) // in-place: overwrite
		if dev.Stats().Overwrites != 2 {
			t.Fatal("range write must count as overwrite")
		}
	})
}

// TestOverwriteReturnsDelta: Overwrite leaves the new bytes in place and
// returns old ⊕ new per extent, at the extent's offset.
func TestOverwriteReturnsDelta(t *testing.T) {
	eachBackend(t, func(t *testing.T, s *Store, _ *device.Device) {
		old := []byte{1, 2, 3, 4, 5, 6, 7, 8}
		mustWriteFull(t, s, bid(1), old)
		deltas := [][]byte{make([]byte, 2), make([]byte, 1)}
		n, cost, err := s.Overwrite(sim.ClassOther, bid(1), len(old), []Extent{
			{Off: 1, Data: []byte{9, 9}},
			{Off: 6, Data: []byte{0xF0}},
		}, deltas)
		if err != nil || n != 2 || cost <= 0 {
			t.Fatalf("overwrite: %d applied, cost %v err %v", n, cost, err)
		}
		want := [][]byte{{2 ^ 9, 3 ^ 9}, {7 ^ 0xF0}}
		for i := range want {
			if !bytes.Equal(deltas[i], want[i]) {
				t.Fatalf("delta %d = %v, want %v", i, deltas[i], want[i])
			}
		}
		if got, _ := s.Snapshot(bid(1)); !bytes.Equal(got, []byte{1, 9, 9, 4, 5, 6, 0xF0, 8}) {
			t.Fatalf("block after overwrite = %v", got)
		}
	})
}

// refXor returns a ⊕ b, byte by byte.
func refXor(a, b []byte) []byte {
	out := make([]byte, len(a))
	for i := range a {
		out[i] = a[i] ^ b[i]
	}
	return out
}

// refFold returns block with c·delta folded in at off, byte by byte:
// Eq. 2 without the slice kernels.
func refFold(block []byte, off int, c byte, delta []byte) []byte {
	out := bytes.Clone(block)
	for i, d := range delta {
		out[off+i] ^= gf256.Mul(c, d)
	}
	return out
}

// TestFoldAndOverwriteMatchReference: on both backends, a Fold of
// coefficient 0, 1 or a random one leaves the block a byte-wise
// p ⊕ c·Δ reference predicts, and an Overwrite leaves the new bytes in
// place and returns old ⊕ new. Offsets and lengths are unaligned and
// cross the durable engine's pages; the first fold lands in an absent
// block, which it creates zero-filled.
func TestFoldAndOverwriteMatchReference(t *testing.T) {
	eachBackend(t, func(t *testing.T, s *Store, _ *device.Device) {
		const size = 40<<10 + 13
		rng := rand.New(rand.NewSource(9))
		id := bid(7)
		want := make([]byte, size) // what the block must hold
		folds := 2                 // the first fold, into the absent block, scales
		for round := 0; round < 40; round++ {
			off := rng.Intn(size - 1)
			n := 1 + rng.Intn(min(size-off, 20<<10))
			data := make([]byte, n)
			rng.Read(data)
			if round%3 == 2 {
				delta := make([]byte, n)
				applied, _, err := s.Overwrite(sim.ClassOther, id, size, []Extent{{Off: uint32(off), Data: data}}, [][]byte{delta})
				if err != nil || applied != 1 {
					t.Fatalf("round %d: overwrite applied %d: %v", round, applied, err)
				}
				if !bytes.Equal(delta, refXor(want[off:off+n], data)) {
					t.Fatalf("round %d: overwrite [%d,+%d) returned a wrong delta", round, off, n)
				}
				copy(want[off:], data)
			} else {
				c := [...]byte{0, 1, byte(2 + rng.Intn(254))}[folds%3]
				folds++
				if _, err := s.Fold(sim.ClassOther, id, size, []Extent{{Off: uint32(off), Coeff: c, Data: data}}); err != nil {
					t.Fatalf("round %d: fold: %v", round, err)
				}
				want = refFold(want, off, c, data)
			}
			if got, ok := s.Snapshot(id); !ok || !bytes.Equal(got, want) {
				t.Fatalf("round %d: block differs from the reference", round)
			}
		}
		if _, err := s.Fold(sim.ClassOther, id, size, []Extent{{Off: size - 1, Coeff: 1, Data: []byte{1, 2}}}); err == nil {
			t.Fatal("a fold past the block's end was applied")
		}
		if _, _, err := s.Overwrite(sim.ClassOther, id, size, []Extent{{Off: size, Data: []byte{1}}}, [][]byte{{0}}); err == nil {
			t.Fatal("an overwrite past the block's end was applied")
		}
	})
}

// TestWarmFoldAndOverwriteAllocateNoPayload gates the in-memory
// read-modify-writes: folding a 64 KiB extent of any coefficient, and
// overwriting one into the caller's delta buffer, allocate no
// payload-sized slice.
func TestWarmFoldAndOverwriteAllocateNoPayload(t *testing.T) {
	const size, n = 1 << 20, 64 << 10
	s := New(device.New("test", device.ChameleonSSD()))
	mustWriteFull(t, s, bid(1), make([]byte, size))
	data, delta := bytes.Repeat([]byte{0x3c}, n), make([]byte, n)
	ops := map[string]func() error{
		"fold-1": func() error {
			_, err := s.Fold(sim.ClassOther, bid(1), size, []Extent{{Off: 7, Coeff: 1, Data: data}})
			return err
		},
		"fold-scaled": func() error {
			_, err := s.Fold(sim.ClassOther, bid(1), size, []Extent{{Off: 7, Coeff: 0x53, Data: data}})
			return err
		},
		"overwrite": func() error {
			_, _, err := s.Overwrite(sim.ClassOther, bid(1), size, []Extent{{Off: 7, Data: data}}, [][]byte{delta})
			return err
		},
	}
	for name, op := range ops {
		if perCall := bytesPerCall(t, op); perCall >= n/2 {
			t.Errorf("%s allocated %.0f bytes per call: the extent goes through a fresh slice", name, perCall)
		}
	}
}

// bytesPerCall runs op warm and returns the bytes it allocates per call.
func bytesPerCall(t *testing.T, op func() error) float64 {
	t.Helper()
	const runs = 40
	for i := 0; i < 4; i++ {
		if err := op(); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := op(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestFoldCreatesBlock: folding into an absent block creates it
// zero-filled at blockSize, so the fold leaves exactly the extent.
func TestFoldCreatesBlock(t *testing.T) {
	eachBackend(t, func(t *testing.T, s *Store, _ *device.Device) {
		if _, err := s.Fold(sim.ClassOther, bid(3), 64, []Extent{{Off: 10, Coeff: 1, Data: []byte{5, 6}}}); err != nil {
			t.Fatal(err)
		}
		want := make([]byte, 64)
		want[10], want[11] = 5, 6
		if got, ok := s.Snapshot(bid(3)); !ok || !bytes.Equal(got, want) {
			t.Fatalf("fold-created block = %v (ok %v)", got, ok)
		}
	})
}

// TestEmptyFoldOnlyCreates: a Fold of no extents creates the absent
// block zero-filled and charges the device nothing.
func TestEmptyFoldOnlyCreates(t *testing.T) {
	eachBackend(t, func(t *testing.T, s *Store, dev *device.Device) {
		if cost, err := s.Fold(sim.ClassOther, bid(4), 32, nil); err != nil || cost != 0 {
			t.Fatalf("empty fold: cost %v err %v", cost, err)
		}
		if got, ok := s.Snapshot(bid(4)); !ok || !bytes.Equal(got, make([]byte, 32)) {
			t.Fatalf("empty fold left %v (ok %v)", got, ok)
		}
		if st := dev.Stats(); st != (device.Stats{}) {
			t.Fatalf("empty fold charged %+v", st)
		}
	})
}

// TestInPlaceCharges pins the Table 1 pricing of both operations: each
// extent costs exactly one random read and one random overwrite of its
// length.
func TestInPlaceCharges(t *testing.T) {
	eachBackend(t, func(t *testing.T, s *Store, dev *device.Device) {
		mustWriteFull(t, s, bid(1), make([]byte, 1024))
		exts := []Extent{{Off: 0, Coeff: 1, Data: make([]byte, 100)}, {Off: 512, Coeff: 7, Data: make([]byte, 300)}}
		deltas := [][]byte{make([]byte, 100), make([]byte, 300)}
		for _, op := range []struct {
			name string
			run  func() error
		}{
			{"overwrite", func() error { _, _, err := s.Overwrite(sim.ClassOther, bid(1), 1024, exts, deltas); return err }},
			{"fold", func() error { _, err := s.Fold(sim.ClassOther, bid(1), 1024, exts); return err }},
		} {
			before := dev.Stats()
			if err := op.run(); err != nil {
				t.Fatal(err)
			}
			after := dev.Stats()
			got := device.Stats{
				Reads: after.Reads - before.Reads, ReadBytes: after.ReadBytes - before.ReadBytes,
				Writes: after.Writes - before.Writes, WriteBytes: after.WriteBytes - before.WriteBytes,
				Overwrites: after.Overwrites - before.Overwrites, OverwriteBytes: after.OverwriteBytes - before.OverwriteBytes,
				RandomOps: after.RandomOps - before.RandomOps, SeqOps: after.SeqOps - before.SeqOps,
			}
			want := device.Stats{Reads: 2, ReadBytes: 400, Writes: 2, WriteBytes: 400,
				Overwrites: 2, OverwriteBytes: 400, RandomOps: 4}
			if got != want {
				t.Fatalf("%s charged %+v, want %+v", op.name, got, want)
			}
		}
	})
}

// TestConcurrentFolds: folds into one block from many goroutines never
// lose an update — the block ends as the XOR of every input.
func TestConcurrentFolds(t *testing.T) {
	eachBackend(t, func(t *testing.T, s *Store, _ *device.Device) {
		const size, workers, rounds = 256, 8, 25
		want := make([]byte, size)
		inputs := make([][][]byte, workers)
		rng := rand.New(rand.NewSource(1))
		for g := range inputs {
			for i := 0; i < rounds; i++ {
				in := make([]byte, size)
				rng.Read(in)
				for j := range in {
					want[j] ^= in[j]
				}
				inputs[g] = append(inputs[g], in)
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for _, in := range inputs[g] {
					// Two halves per fold: a batch must stay atomic too.
					exts := []Extent{{Off: 0, Coeff: 1, Data: in[:size/2]}, {Off: size / 2, Coeff: 1, Data: in[size/2:]}}
					if _, err := s.Fold(sim.ClassOther, bid(1), size, exts); err != nil {
						t.Error(err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if got, _ := s.Snapshot(bid(1)); !bytes.Equal(got, want) {
			t.Fatal("concurrent folds lost an update")
		}
	})
}

func TestSnapshotIsCopy(t *testing.T) {
	eachBackend(t, func(t *testing.T, s *Store, _ *device.Device) {
		mustWriteFull(t, s, bid(1), []byte{1, 2, 3})
		snap, ok := s.Snapshot(bid(1))
		if !ok {
			t.Fatal("snapshot missing")
		}
		snap[0] = 99
		got, _, _ := readRange(s, bid(1), 0, 1)
		if got[0] != 1 {
			t.Fatal("snapshot must not alias stored data")
		}
		if _, ok := s.Snapshot(bid(9)); ok {
			t.Fatal("snapshot of absent block must report !ok")
		}
	})
}

func TestDeleteAndEnumerate(t *testing.T) {
	eachBackend(t, func(t *testing.T, s *Store, _ *device.Device) {
		mustWriteFull(t, s, bid(1), []byte{1})
		mustWriteFull(t, s, bid(2), []byte{2})
		if len(s.Blocks()) != 2 {
			t.Fatal("enumeration wrong")
		}
		if err := s.Delete(bid(1)); err != nil {
			t.Fatal(err)
		}
		if s.Has(bid(1)) || !s.Has(bid(2)) {
			t.Fatal("delete wrong")
		}
		if s.Size(bid(1)) != -1 {
			t.Fatal("size of absent block must be -1")
		}
	})
}

// TestEngineErrorsSurface: a crashed engine's refusals reach the
// caller instead of being acknowledged.
func TestEngineErrorsSurface(t *testing.T) {
	eng, err := store.Open(t.TempDir(), store.Options{Frames: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	s := NewDurable(device.New("test", device.ChameleonSSD()), eng)
	mustWriteFull(t, s, bid(1), make([]byte, 16))
	eng.Crash()
	if _, err := s.WriteFull(sim.ClassOther, bid(1), make([]byte, 16), nil, true); err == nil {
		t.Fatal("WriteFull on a crashed engine must fail")
	}
	if _, err := s.Fold(sim.ClassOther, bid(2), 16, nil); err == nil {
		t.Fatal("Fold creating a block on a crashed engine must fail")
	}
	if err := s.Delete(bid(1)); err == nil {
		t.Fatal("Delete on a crashed engine must fail")
	}
}

func TestConcurrentRangeWrites(t *testing.T) {
	eachBackend(t, func(t *testing.T, s *Store, _ *device.Device) {
		mustWriteFull(t, s, bid(1), make([]byte, 4096))
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
			got, _, err := readRange(s, bid(1), uint32(g*512), 64)
			if err != nil {
				t.Fatal(err)
			}
			if got[0] != byte(g+1) {
				t.Fatalf("region %d corrupted: %d", g, got[0])
			}
		}
	})
}

// memBlockOf returns the buffer an in-memory block lives in now, or nil
// for an absent block or a durable store.
func memBlockOf(s *Store, id wire.BlockID) *memBlock {
	mem, ok := s.be.(*memBackend)
	if !ok {
		return nil
	}
	blk, _ := mem.get(id)
	return blk
}

// TestViewKeepsLentBytes: a view keeps the bytes it was lent through
// every write to its block and the block's delete, a later view sees
// the write, and once released no loan is left on either buffer. An
// overwrite's delta comes from the lent bytes. With no view out a
// write stays in place; the in-memory block moves to a fresh buffer
// only while it is lent.
func TestViewKeepsLentBytes(t *testing.T) {
	const size = 8 << 10
	writes := map[string]func(s *Store, id wire.BlockID, before []byte) error{
		"overwrite": func(s *Store, id wire.BlockID, before []byte) error {
			data := bytes.Repeat([]byte{0x11}, 3000)
			delta := make([]byte, len(data))
			if _, _, err := s.Overwrite(sim.ClassOther, id, size, []Extent{{Off: 100, Data: data}}, [][]byte{delta}); err != nil {
				return err
			}
			if want := refXor(before[100:3100], data); !bytes.Equal(delta, want) {
				return fmt.Errorf("overwrite of a lent block returned a delta not from its old bytes")
			}
			return nil
		},
		"fold": func(s *Store, id wire.BlockID, _ []byte) error {
			_, err := s.Fold(sim.ClassOther, id, size, []Extent{{Off: 4000, Coeff: 1, Data: bytes.Repeat([]byte{0x22}, 4192)}})
			return err
		},
		"scaled-fold": func(s *Store, id wire.BlockID, before []byte) error {
			data := bytes.Repeat([]byte{0x5a}, 5001)
			if _, err := s.Fold(sim.ClassOther, id, size, []Extent{{Off: 3, Coeff: 0x8e, Data: data}}); err != nil {
				return err
			}
			if got, _ := s.Snapshot(id); !bytes.Equal(got, refFold(before, 3, 0x8e, data)) {
				return fmt.Errorf("scaled fold into a lent block did not fold into its old bytes")
			}
			return nil
		},
		"write-range": func(s *Store, id wire.BlockID, _ []byte) error {
			_, err := s.WriteRange(sim.ClassOther, id, 6000, bytes.Repeat([]byte{0x33}, 2000), true, size)
			return err
		},
		"write-full": func(s *Store, id wire.BlockID, _ []byte) error {
			_, err := s.WriteFull(sim.ClassOther, id, bytes.Repeat([]byte{0x44}, size), nil, false)
			return err
		},
		"delete": func(s *Store, id wire.BlockID, _ []byte) error { return s.Delete(id) },
	}
	for name, write := range writes {
		t.Run(name, func(t *testing.T) {
			eachBackend(t, func(t *testing.T, s *Store, _ *device.Device) {
				id := bid(1)
				before := make([]byte, size)
				rand.New(rand.NewSource(3)).Read(before)
				mustWriteFull(t, s, id, before)
				view, release, cost, err := s.View(sim.ClassOther, id, 0, size, true)
				if err != nil || cost <= 0 {
					t.Fatalf("view: cost %v, %v", cost, err)
				}
				if err := write(s, id, before); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(view, before) {
					t.Fatal("a write changed the bytes of a view lent before it")
				}
				after, ok := s.Snapshot(id)
				later, release2, _, err := s.View(sim.ClassOther, id, 0, size, true)
				if !ok {
					if err == nil {
						t.Fatal("view of a deleted block served")
					}
				} else if err != nil || !bytes.Equal(later, after) {
					t.Fatalf("a view after the write does not see it: %v", err)
				}
				lentBlk := memBlockOf(s, id)
				release()
				if release2 != nil {
					release2()
				}
				for _, blk := range []*memBlock{lentBlk, memBlockOf(s, id)} {
					if blk != nil && blk.state.Load()&^retiredBit != 0 {
						t.Fatal("released views left a loan")
					}
				}
			})
		})
	}

	s := New(device.New("test", device.ChameleonSSD()))
	mustWriteFull(t, s, bid(1), make([]byte, size))
	blk := memBlockOf(s, bid(1))
	if err := writes["write-range"](s, bid(1), nil); err != nil || memBlockOf(s, bid(1)) != blk {
		t.Fatalf("a write with no view out moved the block: %v", err)
	}
	if _, _, _, err := s.View(sim.ClassOther, bid(2), 0, 1, true); err == nil {
		t.Fatal("view of an absent block served")
	}
	if _, _, _, err := s.View(sim.ClassOther, bid(1), size-1, 2, true); err == nil {
		t.Fatal("view past the block's end served")
	}
}

// TestConcurrentViewsAndWrites races views of one block against whole-
// block writes that keep every byte equal: a view that saw two
// versions at once would hold two byte values. Run under -race.
func TestConcurrentViewsAndWrites(t *testing.T) {
	eachBackend(t, func(t *testing.T, s *Store, _ *device.Device) {
		const size = 16 << 10
		id := bid(1)
		mustWriteFull(t, s, id, make([]byte, size))
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 1; i <= 100; i++ {
					v := bytes.Repeat([]byte{byte(w*100 + i)}, size)
					var err error
					switch i % 3 {
					case 0:
						_, err = s.WriteFull(sim.ClassOther, id, v, nil, false)
					case 1:
						_, err = s.WriteRange(sim.ClassOther, id, 0, v, true, size)
					case 2:
						_, err = s.Fold(sim.ClassOther, id, size, []Extent{{Coeff: 1, Data: v}})
					}
					if err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					view, release, _, err := s.View(sim.ClassOther, id, 0, size, true)
					if err != nil {
						t.Error(err)
						return
					}
					if !bytes.Equal(view, bytes.Repeat(view[:1], size)) {
						t.Error("a view mixes two versions of the block")
					}
					release()
				}
			}()
		}
		wg.Wait()
		if blk := memBlockOf(s, id); blk != nil && blk.state.Load() != 0 {
			t.Fatalf("%d views still lent", blk.state.Load())
		}
	})
}

// TestWriteFullHandsBufferBack: a whole-block write given its buffer's
// free keeps the data uncopied in memory and frees the buffer once the
// block moves off it and no view of it is lent — after an overwrite or
// a delete, or at the last view's release — while the durable engine
// copies and frees at once. Every free runs exactly once.
func TestWriteFullHandsBufferBack(t *testing.T) {
	eachBackend(t, func(t *testing.T, s *Store, _ *device.Device) {
		freed := map[string]int{}
		write := func(name string, id wire.BlockID, v byte) []byte {
			t.Helper()
			data := bytes.Repeat([]byte{v}, 64)
			if _, err := s.WriteFull(sim.ClassOther, id, data, func() { freed[name]++ }, true); err != nil {
				t.Fatal(err)
			}
			return data
		}
		_, mem := s.be.(*memBackend)
		want := func(counts map[string]int) {
			t.Helper()
			if !mem { // the engine frees every buffer before WriteFull returns
				for name := range freed {
					counts[name] = 1
				}
			}
			for name, n := range freed {
				if counts[name] != n {
					t.Fatalf("frees %v, want %v", freed, counts)
				}
			}
		}
		a := write("a1", bid(1), 1)
		if snap, _ := s.Snapshot(bid(1)); !bytes.Equal(snap, a) {
			t.Fatal("written block reads back wrong")
		}
		if mem && &memBlockOf(s, bid(1)).b[0] != &a[0] {
			t.Fatal("the in-memory block copied a buffer it was handed")
		}
		want(map[string]int{"a1": 0})
		write("a2", bid(1), 2)
		want(map[string]int{"a1": 1, "a2": 0})
		view, release, _, err := s.View(sim.ClassOther, bid(1), 0, 64, false)
		if err != nil {
			t.Fatal(err)
		}
		write("a3", bid(1), 3)
		want(map[string]int{"a1": 1, "a2": 0, "a3": 0})
		if !bytes.Equal(view, bytes.Repeat([]byte{2}, 64)) {
			t.Fatal("a lent view changed under a whole-block write")
		}
		release()
		want(map[string]int{"a1": 1, "a2": 1, "a3": 0})
		if err := s.Delete(bid(1)); err != nil {
			t.Fatal(err)
		}
		want(map[string]int{"a1": 1, "a2": 1, "a3": 1})
	})
}
