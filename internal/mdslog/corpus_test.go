package mdslog

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/wire"
)

// seedCorpus is the committed fuzz seed corpus under
// testdata/fuzz/FuzzMDSLogReplay, rendered by today's encoders.
func seedCorpus(t testing.TB) map[string][]byte {
	valid := validLogBytes(t)
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/2] ^= 0x40
	badKind := frameRecord(t, Record{Kind: KindNode, Node: 3, InPool: true})
	badKind[8] = 0xee
	return map[string][]byte{
		"oplog-valid":   valid,
		"oplog-torn":    valid[:len(valid)-4],
		"oplog-bitflip": flipped,
		"oplog-badkind": badKind,
		"oplog-empty":   {},
	}
}

func corpusFile(data []byte) []byte {
	return []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(data))))
}

// TestSeedCorpusUnchanged pins the op-log on-disk format: the committed
// corpus, written by an earlier build, must be byte-identical to what
// the current encoders and framelog produce.
func TestSeedCorpusUnchanged(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzMDSLogReplay")
	for name, data := range seedCorpus(t) {
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
// with MDSLOG_WRITE_CORPUS=1 after a deliberate record-format change).
// The corpus keeps CI's non-fuzzing `go test -run Fuzz` step exercising
// real torn-log shapes.
func TestWriteSeedCorpus(t *testing.T) {
	if os.Getenv("MDSLOG_WRITE_CORPUS") == "" {
		t.Skip("set MDSLOG_WRITE_CORPUS=1 to regenerate the seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzMDSLogReplay")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range seedCorpus(t) {
		if err := os.WriteFile(filepath.Join(dir, name), corpusFile(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAppendWritesSeedCorpus: the op log Log.Append writes, record by
// record, is the committed oplog-valid seed — the bytes a log written
// by an earlier build holds, so it reopens unchanged.
func TestAppendWritesSeedCorpus(t *testing.T) {
	dir := t.TempDir()
	l, _, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, r := range sampleRecords() {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(filepath.Join(dir, "oplog.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, seedCorpus(t)["oplog-valid"]) {
		t.Fatal("appended op log differs from the committed seed")
	}
}

// TestWarmAppendAllocatesNothing gates the op log's append path: a
// record is encoded on the stack and framed in the log's reused
// buffer.
func TestWarmAppendAllocatesNothing(t *testing.T) {
	l, _, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	r := Record{Kind: KindBind, Ino: 17, Stripe: 3, Nodes: []wire.NodeID{1, 2, 3, 4, 5, 6, 7, 8, 9}}
	if err := l.Append(r); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		r.Epoch++
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm op-log append allocates %.1f times", allocs)
	}
}
