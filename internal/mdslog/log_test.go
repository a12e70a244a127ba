package mdslog

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/framelog"
	"repro/internal/wire"
)

// sampleRecords is every record kind, exercising every layout and
// every node state bit.
func sampleRecords() []Record {
	return []Record{
		{Kind: KindCreate, Ino: 17, Name: "vol0/f17"},
		{Kind: KindBind, Ino: 17, Stripe: 3, Epoch: 0, Nodes: []wire.NodeID{1, 2, 3, 4, 5, 6}},
		{Kind: KindBind, Ino: 17, Stripe: 3, Epoch: 1, Nodes: []wire.NodeID{1, 2, 9, 4, 5, 6}},
		{Kind: KindNode, Node: 9, InPool: true},
		{Kind: KindNode, Node: 3},
		{Kind: KindNode, Node: 9, InPool: true, Name: "127.0.0.1:7009"},
		{Kind: KindNode, Node: 5, Draining: true},
		{Kind: KindNode, Node: 5, InPool: true, Draining: true, Name: "127.0.0.1:7005"},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for _, want := range sampleRecords() {
		p, err := appendRecord(nil, want)
		if err != nil {
			t.Fatalf("encode %v: %v", want.Kind, err)
		}
		got, err := decodeRecord(byte(want.Kind), p)
		if err != nil {
			t.Fatalf("decode %v: %v", want.Kind, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v round trip:\n got %+v\nwant %+v", want.Kind, got, want)
		}
		// Strict decoding: any length deviation must error, so recovery
		// can treat undecodable-but-CRC-valid as end of committed prefix.
		if _, err := decodeRecord(byte(want.Kind), append(p, 0)); err == nil {
			t.Fatalf("%v decoded with a trailing byte", want.Kind)
		}
	}
	p, err := appendRecord(nil, Record{Kind: KindNode, Node: 5})
	if err != nil {
		t.Fatal(err)
	}
	p[4] = 1 << 2
	if _, err := decodeRecord(byte(KindNode), p); err == nil {
		t.Fatal("a node record with an unknown state bit decoded")
	}
}

func TestAppendReopenReplay(t *testing.T) {
	dir := t.TempDir()
	l, st, recs, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st != nil || len(recs) != 0 {
		t.Fatalf("fresh dir returned state %v, %d records", st, len(recs))
	}
	want := sampleRecords()
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	l.Crash() // kill -9: no checkpoint, no sync beyond write(2)
	l.Close()

	l2, st2, got, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if st2 != nil {
		t.Fatalf("no snapshot was written, got state %+v", st2)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay:\n got %+v\nwant %+v", got, want)
	}
}

func TestTornTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	l, _, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()[:3]
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	size := l.Size()
	if err := l.Append(Record{Kind: KindCreate, Ino: 99, Name: "torn"}); err != nil {
		t.Fatal(err)
	}
	l.Crash()
	l.Close()
	// Tear the last record mid-payload.
	path := filepath.Join(dir, "oplog.bin")
	if err := os.Truncate(path, size+framelog.HeaderSize+4); err != nil {
		t.Fatal(err)
	}

	l2, _, got, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("torn-tail replay returned %d records, want %d committed", len(got), len(want))
	}
	if l2.Size() != size {
		t.Fatalf("tail not truncated: size %d, want %d", l2.Size(), size)
	}
	// Appending after recovery lands cleanly where the tear was cut.
	if err := l2.Append(want[0]); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotRoundTripAndCompact(t *testing.T) {
	dir := t.TempDir()
	l, _, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sampleRecords() {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	st := &State{
		K: 4, M: 2, Shards: 16,
		Pool: []wire.NodeID{1, 2, 9, 4},
		Files: []FileState{
			{Name: "vol0/f17", Ino: 17, Stripes: []StripeState{
				{Stripe: 3, Epoch: 1, Nodes: []wire.NodeID{1, 2, 9, 4, 5, 6}},
			}},
			{Name: "empty", Ino: 33},
		},
		Nodes: []Record{
			{Kind: KindNode, Node: 5, Draining: true},
			{Kind: KindNode, Node: 9, InPool: true, Name: "127.0.0.1:7009"},
		},
	}
	if err := l.Compact(st); err != nil {
		t.Fatal(err)
	}
	if l.Size() != 0 {
		t.Fatalf("compact left %d log bytes", l.Size())
	}
	l.Close()

	l2, st2, recs, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(recs) != 0 {
		t.Fatalf("compacted log replayed %d records", len(recs))
	}
	if !reflect.DeepEqual(st2, st) {
		t.Fatalf("snapshot round trip:\n got %+v\nwant %+v", st2, st)
	}
}

// TestCompactCrashBeforeTruncate fabricates the checkpoint crash
// window: snapshot renamed, log not yet truncated. Reopen must hand
// back the new snapshot plus the stale records for idempotent redo.
func TestCompactCrashBeforeTruncate(t *testing.T) {
	dir := t.TempDir()
	l, _, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	st := &State{K: 4, M: 2, Shards: 8, Pool: []wire.NodeID{1, 2, 3, 4, 5, 6}}
	l.SkipNextTruncate()
	if err := l.Compact(st); err != nil {
		t.Fatal(err)
	}
	if l.Size() == 0 {
		t.Fatal("SkipNextTruncate did not keep the log")
	}
	l.Crash()
	l.Close()

	l2, st2, recs, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if !reflect.DeepEqual(st2, st) {
		t.Fatalf("stale-prefix reopen lost the renamed snapshot: %+v", st2)
	}
	if !reflect.DeepEqual(recs, want) {
		t.Fatalf("stale-prefix reopen returned %d records, want %d", len(recs), len(want))
	}
}

func TestFailAppendsFailStop(t *testing.T) {
	dir := t.TempDir()
	l, _, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.FailAppends(2)
	if err := l.Append(sampleRecords()[0]); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(sampleRecords()[3]); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(sampleRecords()[4]); err == nil {
		t.Fatal("append past the kill point succeeded")
	}
	if !l.Crashed() {
		t.Fatal("failed append did not freeze the log")
	}
	// Sticky: everything fails from here, including compaction.
	if err := l.Append(sampleRecords()[0]); err == nil {
		t.Fatal("append on a crashed log succeeded")
	}
	if err := l.Compact(&State{K: 1, M: 1, Shards: 1}); err == nil {
		t.Fatal("compact on a crashed log succeeded")
	}
	l.Close()

	// Only the two acknowledged records survive.
	_, _, recs, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("reopened with %d records, want the 2 acknowledged", len(recs))
	}
}

func TestHugeLengthPrefixBounded(t *testing.T) {
	dir := t.TempDir()
	hdr := make([]byte, framelog.HeaderSize)
	hdr[0], hdr[1], hdr[2], hdr[3] = 0xff, 0xff, 0xff, 0x7f
	if err := os.WriteFile(filepath.Join(dir, "oplog.bin"), hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	l, _, recs, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(recs) != 0 {
		t.Fatalf("implausible length prefix yielded %d records", len(recs))
	}
	if l.Size() != 0 {
		t.Fatalf("corrupt head not truncated: %d bytes", l.Size())
	}
}

// TestOpenRefusesSnapshotVersion1: a directory checkpointed by the
// ten-kind op log is refused at open, never replayed with its retired
// record kinds cut off as a torn tail.
func TestOpenRefusesSnapshotVersion1(t *testing.T) {
	dir := t.TempDir()
	body, err := encodeSnapshot(&State{K: 4, M: 2, Shards: 8, Pool: []wire.NodeID{1, 2, 3, 4, 5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(body, 1)
	if err := framelog.WriteFile(filepath.Join(dir, "snapshot.bin"), body); err != nil {
		t.Fatal(err)
	}
	l, _, _, err := Open(dir, Options{})
	if err == nil {
		l.Close()
		t.Fatal("Open accepted a version-1 snapshot")
	}
	if !strings.Contains(err.Error(), "version 1, want 2") {
		t.Fatalf("refusal does not name both versions: %v", err)
	}
}
