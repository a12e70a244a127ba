package mdslog

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/framelog"
)

// frameRecord renders one framed record the way Append lays it down.
func frameRecord(t testing.TB, r Record) []byte {
	t.Helper()
	payload, err := appendRecord(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	return framelog.AppendFrame(nil, byte(r.Kind), payload)
}

func validLogBytes(t testing.TB) []byte {
	t.Helper()
	var b []byte
	for _, r := range sampleRecords() {
		b = append(b, frameRecord(t, r)...)
	}
	return b
}

// FuzzMDSLogReplay feeds arbitrary bytes to Open as a crash-left op
// log. The framing (torn tails, truncation, append after recovery,
// reopen agreement) is framelog's FuzzScan; here Open must not error or
// panic, every recovered record must re-encode to the exact bytes it
// was decoded from, in order, from offset zero, and the strict-decode
// cut must hold: if a CRC-valid frame sits at the recovered tail, it is
// one decodeRecord rejects — no unacked mutation can be resurrected by
// replaying garbage, and none is dropped while a decodable one follows.
func FuzzMDSLogReplay(f *testing.F) {
	valid := validLogBytes(f)
	f.Add(valid)                         // clean log
	f.Add(valid[:len(valid)-3])          // torn tail mid-record
	f.Add([]byte{})                      // empty file
	f.Add(valid[:framelog.HeaderSize-2]) // short header
	bitflip := bytes.Clone(valid)
	bitflip[len(bitflip)/2] ^= 0x40 // corrupt a byte in the middle
	f.Add(bitflip)
	huge := make([]byte, framelog.HeaderSize)
	binary.LittleEndian.PutUint32(huge[0:4], 1<<30) // implausible length
	f.Add(huge)
	zeroKind := bytes.Clone(frameRecord(f, Record{Kind: KindNode, Node: 3, InPool: true}))
	zeroKind[8] = 0 // CRC now wrong too, but exercise the kind path
	f.Add(zeroKind)
	// A CRC-valid frame of an unknown kind mid-log: the cut lands on it.
	f.Add(append(framelog.AppendFrame(bytes.Clone(valid), 0xee, []byte{1, 2, 3}), valid...))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "oplog.bin"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, st, recs, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("Open on corrupt log errored: %v", err)
		}
		defer l.Close()
		if st != nil {
			t.Fatalf("no snapshot on disk, got state %+v", st)
		}
		tail := l.Size()
		var refr []byte
		for _, r := range recs {
			refr = append(refr, frameRecord(t, r)...)
		}
		if int64(len(refr)) != tail || !bytes.Equal(refr, data[:tail]) {
			t.Fatalf("recovered records do not re-encode to the committed prefix (%d records, tail %d)", len(recs), tail)
		}
		rest := data[tail:]
		framelog.Scan(bytes.NewReader(rest), int64(len(rest)), func(kind byte, p []byte) bool {
			if _, err := decodeRecord(kind, p); err == nil {
				t.Fatalf("a decodable %v record at offset %d ended the committed prefix", Kind(kind), tail)
			}
			return false
		})
	})
}
