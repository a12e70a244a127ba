package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/framelog"
)

// retiredEpochRecord is a WAL record of retired kind 3 (ino 3, stripe
// 2, epoch 9), which journaled a bare stripe epoch before placements
// carried it. Logs written then may still hold it; redo skips it.
var retiredEpochRecord = rec(3, []byte{3, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0})

// seedCorpus is the committed fuzz seed corpus under
// testdata/fuzz/FuzzWALReplay, rendered by today's encoders.
func seedCorpus() map[string][]byte {
	b := bid(3, 2, 1)
	valid := frames(
		rec(opWrite, appendWrite(nil, b, 64, 0), []byte("payload")),
		retiredEpochRecord,
	)
	flipped := bytes.Clone(valid)
	flipped[framelog.HeaderSize+2] ^= 0x40
	seg := frames(
		rec(segHeader, appendSegHeader(nil, "tsue-data/osd1/0", 7)),
		rec(segEntry, appendSegEntry(nil, 12, b, 8, 99), []byte("delta")),
		rec(segFoldBlock, appendBlockID(nil, b)),
	)
	return map[string][]byte{
		"wal-valid":     valid,
		"wal-torn":      valid[:len(valid)-5],
		"wal-bitflip":   flipped,
		"seg-valid":     seg,
		"seg-torn-head": seg[:framelog.HeaderSize+3],
	}
}

func corpusFile(data []byte) []byte {
	return []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(data))))
}

// TestSeedCorpusUnchanged pins the WAL and segment on-disk format: the
// committed corpus, written by an earlier build, must be byte-identical
// to what the current encoders and framelog produce.
func TestSeedCorpusUnchanged(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzWALReplay")
	for name, data := range seedCorpus() {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, corpusFile(data)) {
			t.Errorf("%s: committed seed differs from today's encoding", name)
		}
	}
}

// TestWriteSeedCorpus regenerates the committed fuzz seed corpus (run
// with STORE_WRITE_CORPUS=1 after a deliberate record-format change).
// The corpus keeps CI's non-fuzzing `go test -run Fuzz` step exercising
// real torn-log shapes.
func TestWriteSeedCorpus(t *testing.T) {
	if os.Getenv("STORE_WRITE_CORPUS") == "" {
		t.Skip("set STORE_WRITE_CORPUS=1 to regenerate the seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzWALReplay")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range seedCorpus() {
		if err := os.WriteFile(filepath.Join(dir, name), corpusFile(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRetiredKindSkipped: a WAL holding the seed corpus's retired kind-3
// record reopens with the block write redone and the retired record
// skipped — it seeds no placement.
func TestRetiredKindSkipped(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal.bin"), seedCorpus()["wal-valid"], 0o644); err != nil {
		t.Fatal(err)
	}
	e := openT(t, dir, Options{})
	defer e.Close()
	if snap, ok := e.Snapshot(bid(3, 2, 1)); !ok || string(snap[:7]) != "payload" {
		t.Fatalf("opWrite before the retired record not redone: ok=%v", ok)
	}
	e.ForEachPlacement(func(ino uint64, stripe uint32, p Placement) {
		t.Fatalf("retired record seeded a placement: %d/%d %+v", ino, stripe, p)
	})
}

// TestAppendWritesSeedCorpus: WAL and segment records appended the way
// the engine appends them — head encoded on the stack, payload passed
// apart — are the committed seeds' bytes, so directories an earlier
// build wrote reopen unchanged.
func TestAppendWritesSeedCorpus(t *testing.T) {
	b := bid(3, 2, 1)
	var head [headCap]byte
	for name, appends := range map[string]func(l *framelog.Log) error{
		"wal-valid": func(l *framelog.Log) error {
			if err := l.Append(opWrite, appendWrite(head[:0], b, 64, 0), []byte("payload")); err != nil {
				return err
			}
			return l.Append(retiredEpochRecord[0], retiredEpochRecord[1:], nil)
		},
		"seg-valid": func(l *framelog.Log) error {
			if err := l.Append(segHeader, appendSegHeader(head[:0], "tsue-data/osd1/0", 7), nil); err != nil {
				return err
			}
			if err := l.Append(segEntry, appendSegEntry(head[:0], 12, b, 8, 99), []byte("delta")); err != nil {
				return err
			}
			return l.Append(segFoldBlock, appendBlockID(head[:0], b), nil)
		},
	} {
		path := filepath.Join(t.TempDir(), name)
		l, err := framelog.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		err = appends(l)
		l.Close()
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, seedCorpus()[name]) {
			t.Errorf("%s: appended records differ from the committed seed", name)
		}
	}
}

// TestWarmAppendsAllocateNothing gates the engine's record appends: a
// warmed segment entry and a WAL range write encode their heads on the
// stack and frame into their log's reused buffer.
func TestWarmAppendsAllocateNothing(t *testing.T) {
	e := openT(t, t.TempDir(), Options{})
	defer e.Close()
	b := bid(1, 0, 0)
	layer := e.Layer("tsue-data/osd1/0")
	data := bytes.Repeat([]byte{9}, 4096)
	layer.AppendEntry(1, b, 0, 0, data)
	if allocs := testing.AllocsPerRun(100, func() { layer.AppendEntry(1, b, 0, 0, data) }); allocs != 0 {
		t.Errorf("warm segment append allocates %.1f times", allocs)
	}
	if err := e.WriteRange(b, 0, data); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := e.WriteRange(b, 0, data); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm WAL range write allocates %.1f times", allocs)
	}
}
