package mdslog

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
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
