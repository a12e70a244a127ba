package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/framelog"
	"repro/internal/wire"
)

func bid(ino uint64, stripe uint32, idx uint8) wire.BlockID {
	return wire.BlockID{Ino: ino, Stripe: stripe, Idx: idx}
}

func openT(t *testing.T, dir string, o Options) *Engine {
	t.Helper()
	e, err := Open(dir, o)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return e
}

func TestEngineWriteReadReopen(t *testing.T) {
	dir := t.TempDir()
	e := openT(t, dir, Options{PageSize: 64, Frames: 8})
	b := bid(1, 0, 2)
	if err := e.Ensure(b, 300); err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0xab}, 100)
	if err := e.WriteRange(b, 50, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 120)
	if err := e.ReadInto(b, 40, got); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 120)
	copy(want[10:110], data)
	if !bytes.Equal(got, want) {
		t.Fatalf("read mismatch after write")
	}
	full := bytes.Repeat([]byte{0x17}, 90)
	if err := e.WriteFull(b, full); err != nil {
		t.Fatal(err)
	}
	if e.Size(b) != 90 {
		t.Fatalf("Size = %d after WriteFull(90)", e.Size(b))
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := openT(t, dir, Options{PageSize: 64, Frames: 8})
	defer e2.Close()
	snap, ok := e2.Snapshot(b)
	if !ok || !bytes.Equal(snap, full) {
		t.Fatalf("snapshot after clean reopen: ok=%v len=%d", ok, len(snap))
	}
	if e2.Stats().RedoneRecords != 0 {
		t.Fatalf("clean shutdown should leave an empty WAL, redid %d records", e2.Stats().RedoneRecords)
	}
	if err := e2.Delete(b); err != nil {
		t.Fatal(err)
	}
	if e2.Has(b) {
		t.Fatal("block survives Delete")
	}
}

// TestEngineKillPointRedo is the deterministic kill-point test: crash
// after the WAL append but before any page writeback (no checkpoint,
// no eviction), and assert redo restores the page on reopen.
func TestEngineKillPointRedo(t *testing.T) {
	dir := t.TempDir()
	e := openT(t, dir, Options{PageSize: 128, Frames: 32})
	b := bid(7, 3, 0)
	data := bytes.Repeat([]byte{0x5c}, 512)
	if err := e.WriteFull(b, data); err != nil {
		t.Fatal(err)
	}
	// The write is in the WAL and in dirty frames only: blocks.dat has
	// never been written back (pool is big enough that nothing evicted).
	e.Crash()
	if err := e.WriteFull(b, []byte{1}); err != ErrCrashed {
		t.Fatalf("write after crash: %v, want ErrCrashed", err)
	}
	e.Close()

	e2 := openT(t, dir, Options{PageSize: 128, Frames: 32})
	defer e2.Close()
	if e2.Stats().RedoneRecords == 0 {
		t.Fatal("expected WAL records to redo after crash")
	}
	snap, ok := e2.Snapshot(b)
	if !ok || !bytes.Equal(snap, data) {
		t.Fatalf("redo did not restore the page: ok=%v", ok)
	}
}

func TestEngineTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	e := openT(t, dir, Options{PageSize: 128, Frames: 8})
	b := bid(1, 1, 1)
	if err := e.WriteFull(b, bytes.Repeat([]byte{9}, 64)); err != nil {
		t.Fatal(err)
	}
	e.Crash()
	e.Close()
	// Tear the WAL: append a half-record of garbage.
	path := filepath.Join(dir, "wal.bin")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xff, 0x00, 0x00, 0x00, 0xde, 0xad})
	f.Close()

	e2 := openT(t, dir, Options{PageSize: 128, Frames: 8})
	defer e2.Close()
	snap, ok := e2.Snapshot(b)
	if !ok || len(snap) != 64 || snap[0] != 9 {
		t.Fatalf("committed record lost to torn tail: ok=%v", ok)
	}
	// The torn bytes must be gone so new appends extend a clean log.
	if err := e2.WriteFull(b, bytes.Repeat([]byte{8}, 64)); err != nil {
		t.Fatal(err)
	}
	e2.Crash()
	e2.Close()
	e3 := openT(t, dir, Options{PageSize: 128, Frames: 8})
	defer e3.Close()
	snap, _ = e3.Snapshot(b)
	if len(snap) != 64 || snap[0] != 8 {
		t.Fatal("append after torn-tail truncation did not commit")
	}
}

func TestEngineEvictionWriteback(t *testing.T) {
	dir := t.TempDir()
	// 4 frames of 64 bytes: heavy eviction under a 16-block workload.
	e := openT(t, dir, Options{PageSize: 64, Frames: 4})
	defer e.Close()
	for i := 0; i < 16; i++ {
		b := bid(2, uint32(i), 0)
		if err := e.WriteFull(b, bytes.Repeat([]byte{byte(i)}, 200)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		snap, ok := e.Snapshot(bid(2, uint32(i), 0))
		if !ok || len(snap) != 200 || snap[100] != byte(i) {
			t.Fatalf("block %d corrupted by eviction", i)
		}
	}
	if e.Stats().Writebacks == 0 {
		t.Fatal("expected dirty-page writebacks under a 4-frame pool")
	}
}

func TestEngineSegmentReplayAndFold(t *testing.T) {
	dir := t.TempDir()
	e := openT(t, dir, Options{})
	lay := e.Layer("pool/a")
	b1, b2 := bid(1, 0, 0), bid(1, 1, 0)
	lay.AppendEntry(1, b1, 0, 10, []byte("one"))
	lay.AppendEntry(1, b2, 8, 20, []byte("two"))
	lay.AppendEntry(2, b1, 4, 30, []byte("three"))
	lay.FoldBlock(1, b2) // b2's gen-1 entry recycled: must not replay
	e.Crash()
	e.Close()

	e2 := openT(t, dir, Options{})
	defer e2.Close()
	var got []SegEntry
	e2.Replay(func(se SegEntry) { got = append(got, se) })
	if len(got) != 2 {
		t.Fatalf("replayed %d entries, want 2 (folded one dropped)", len(got))
	}
	if got[0].Off != 0 || string(got[0].Data) != "one" || got[0].Layer != "pool/a" {
		t.Fatalf("entry 0 mismatch: %+v", got[0])
	}
	if got[1].Off != 4 || string(got[1].Data) != "three" || got[1].V != 30 {
		t.Fatalf("entry 1 mismatch: %+v", got[1])
	}
	if got[0].Seq >= got[1].Seq {
		t.Fatal("replay out of append order")
	}
	e2.FinishReplay()
	if n := e2.ReplayPending(); n != 0 {
		t.Fatalf("%d entries pending after FinishReplay", n)
	}

	// Unit folds make files compactable.
	lay2 := e2.Layer("pool/a")
	lay2.AppendEntry(5, b1, 0, 1, []byte("dead"))
	lay2.FoldUnit(5)
	n, err := e2.CompactNow(context.Background(), nil)
	if err != nil || n == 0 {
		t.Fatalf("CompactNow reclaimed %d bytes, err %v", n, err)
	}
	e2.Crash()
	e2.Close()
	e3 := openT(t, dir, Options{})
	defer e3.Close()
	if n := e3.ReplayPending(); n != 0 {
		t.Fatalf("unit-folded entries replayed: %d", n)
	}
}

// TestEnginePlacementLastRecordWins: the engine keeps the last
// placement journaled for a stripe, whatever its epoch or geometry —
// the owner decides which placement is newer. A geometry-free record,
// the full placement at the same epoch and then an older placement
// leave the older one, after a crash reopen (WAL redo) and after a
// clean reopen (meta.bin) alike.
func TestEnginePlacementLastRecordWins(t *testing.T) {
	dir := t.TempDir()
	e := openT(t, dir, Options{})
	last := Placement{K: 2, M: 1, Epoch: 5, Nodes: []wire.NodeID{7, 8, 9}}
	for _, p := range []Placement{
		{Epoch: 7, Nodes: []wire.NodeID{4, 5, 6}},
		{K: 2, M: 1, Epoch: 7, Nodes: []wire.NodeID{4, 5, 6}},
		last,
	} {
		if err := e.RememberPlacement(3, 1, p); err != nil {
			t.Fatal(err)
		}
	}
	check := func(e *Engine, how string) {
		t.Helper()
		var got []Placement
		e.ForEachPlacement(func(ino uint64, stripe uint32, p Placement) {
			if ino != 3 || stripe != 1 {
				t.Fatalf("%s: placement for %d/%d", how, ino, stripe)
			}
			got = append(got, p)
		})
		if len(got) != 1 || !reflect.DeepEqual(got[0], last) {
			t.Fatalf("%s: placements %+v, want [%+v]", how, got, last)
		}
	}
	e.Crash()
	e.Close()

	e = openT(t, dir, Options{})
	if e.Stats().RedoneRecords != 3 {
		t.Fatalf("redid %d records, want the 3 placements", e.Stats().RedoneRecords)
	}
	check(e, "after crash reopen")
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e = openT(t, dir, Options{})
	defer e.Close()
	if e.Stats().RedoneRecords != 0 {
		t.Fatalf("clean reopen redid %d records", e.Stats().RedoneRecords)
	}
	check(e, "after clean reopen")
}

// TestOpenRefusesMetaVersion1: a checkpoint of layout version 1, which
// carried a separate stripe-epoch section, is refused rather than
// misread.
func TestOpenRefusesMetaVersion1(t *testing.T) {
	dir := t.TempDir()
	body := encodeMeta(&meta{blocks: map[wire.BlockID]*blockMeta{}, places: map[stripeKey]Placement{}})
	binary.LittleEndian.PutUint32(body, 1)
	if err := framelog.WriteFile(filepath.Join(dir, "meta.bin"), body); err != nil {
		t.Fatal(err)
	}
	if e, err := Open(dir, Options{}); err == nil {
		e.Close()
		t.Fatal("Open accepted a version-1 meta.bin")
	}
}
