package store

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/framelog"
	"repro/internal/wire"
)

// frames concatenates framed records the way the WAL and segment files
// lay them down.
func frames(recs ...[]byte) []byte {
	var b []byte
	for _, r := range recs {
		b = framelog.AppendFrame(b, r[0], r[1:])
	}
	return b
}

// rec prefixes a payload, given in parts, with its kind, for frames.
func rec(kind byte, parts ...[]byte) []byte {
	r := []byte{kind}
	for _, p := range parts {
		r = append(r, p...)
	}
	return r
}

// FuzzWALReplay feeds arbitrary byte streams — including truncated and
// bit-flipped tails of valid logs — to the store's record decoders and
// to scanSegmentFile. The framing itself (committed prefix, torn-tail
// truncation) is framelog's FuzzScan; here the decoders must fail
// cleanly on any payload, and the segment scan must net folds exactly:
// nothing from a file without an intact header or with a unit fold,
// otherwise every decodable entry whose block was not folded.
func FuzzWALReplay(f *testing.F) {
	b := bid(3, 2, 1)
	valid := frames(
		rec(opWrite, appendWrite(nil, b, 64, 0), []byte("payload")),
		rec(opPlacement, appendPlacement(nil, 3, 2, Placement{Epoch: 9, Nodes: []wire.NodeID{4, 5, 6}})),
		rec(opEnsure, appendEnsure(nil, b, 4096)),
	)
	f.Add(valid)
	f.Add(valid[:len(valid)-5]) // torn tail
	flipped := bytes.Clone(valid)
	flipped[framelog.HeaderSize+2] ^= 0x40 // bit flip inside the first payload
	f.Add(flipped)

	seg := frames(
		rec(segHeader, appendSegHeader(nil, "tsue-data/osd1/0", 7)),
		rec(segEntry, appendSegEntry(nil, 12, b, 8, 99), []byte("delta")),
		rec(segFoldBlock, appendBlockID(nil, b)),
		rec(segFoldUnit),
	)
	f.Add(seg)
	f.Add(seg[:framelog.HeaderSize+3]) // torn header
	f.Add([]byte{})
	// Implausible length prefix: must not drive a giant allocation.
	huge := make([]byte, framelog.HeaderSize)
	binary.LittleEndian.PutUint32(huge, 1<<31)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		type record struct {
			kind    byte
			payload []byte
		}
		var recs []record
		framelog.Scan(bytes.NewReader(data), int64(len(data)), func(kind byte, p []byte) bool {
			recs = append(recs, record{kind, p})
			return true
		})
		// WAL and segment kinds share values (separate files in real
		// use), so exercise both families on every record.
		for _, r := range recs {
			switch r.kind {
			case opWrite:
				decodeWrite(r.payload)
			case opEnsure:
				decodeEnsure(r.payload)
			case opPlacement:
				decodePlacement(r.payload)
			}
			switch r.kind {
			case segEntry:
				decodeSegEntry(r.payload)
			case segHeader:
				decodeSegHeader(r.payload)
			}
		}

		// The fold netting the segment scan must reproduce.
		var want []SegEntry
		if len(recs) > 0 && recs[0].kind == segHeader {
			if layer, _, err := decodeSegHeader(recs[0].payload); err == nil {
				folded := map[wire.BlockID]bool{}
				for _, r := range recs[1:] {
					switch r.kind {
					case segEntry:
						if seq, block, off, v, d, err := decodeSegEntry(r.payload); err == nil {
							want = append(want, SegEntry{layer, seq, block, off, v, d})
						}
					case segFoldBlock:
						if len(r.payload) >= blockIDLen {
							folded[getBlockID(r.payload)] = true
						}
					}
				}
				live := want[:0]
				for _, e := range want {
					if !folded[e.Block] {
						live = append(live, e)
					}
				}
				want = live
				for _, r := range recs[1:] {
					if r.kind == segFoldUnit {
						want = nil
						break
					}
				}
			}
		}
		path := filepath.Join(t.TempDir(), "log.seg")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := scanSegmentFile(path)
		if err != nil {
			t.Fatalf("scanSegmentFile errored: %v", err)
		}
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("segment scan kept %d entries, want %d", len(got), len(want))
		}
	})
}
