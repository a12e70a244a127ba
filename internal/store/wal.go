// Package store is the persistent per-OSD storage engine: a
// page/extent-based block file behind a fixed-size buffer pool with a
// write-ahead log (WAL-before-data), plus append-only on-disk segment
// files that back the parity/data log pools (one active segment per
// stripe, generation indexed, folded and compacted in place). The WAL
// and the segments are internal/framelog logs and the checkpoint
// (meta.bin) a framelog checksummed file; this package owns only their
// record kinds, payload codecs and redo. Beside block contents the WAL
// journals each stripe placement the owning OSD adopted; the engine
// keeps the last record per stripe and has no placement rule of its
// own. The engine is selected by ecfs.Options.DataDir; with no data dir
// the OSD keeps today's in-memory stores and nothing in this package
// runs.
//
// Crash model: the engine appends WAL and segment records with plain
// write(2) before acknowledging, so a process-level crash (Engine.Crash
// freezes all I/O mid-flight, simulating kill -9) loses at most the
// tail the kernel never saw — which recovery detects by checksum and
// truncates. Nothing is fsynced per record: a checkpoint fsyncs the
// block file and the metadata, then truncates the WAL.
package store

import (
	"encoding/binary"
	"fmt"

	"repro/internal/wire"
)

// WAL record kinds. The WAL carries logical redo records: recovery
// re-applies them through the normal (unlogged) write path, which makes
// redo idempotent — pages written back before the crash are simply
// rewritten with identical bytes. Kind 3 is retired (it carried a bare
// per-stripe epoch); redo skips it like any unknown kind.
const (
	opWrite     = 1 // block range write: id, post-write length, offset, payload
	opDelete    = 2 // block removal: id
	opEnsure    = 4 // zero-filled block creation: id, size
	opPlacement = 5 // stripe placement, last record wins: ino, stripe, epoch, k, m, nodes
)

// Block id and record payload codecs. Thirteen bytes identify a block
// (ino u64, stripe u32, idx u8); the remaining fields are fixed-width
// little-endian. Encoders append a record's fixed fields to dst — the
// head framelog.Log.Append writes before the record's bulk payload —
// so an append can encode them into a stack array.

const blockIDLen = 13

// headCap is the stack array size record heads are encoded into: every
// fixed head fits, and a placement of up to ten nodes does.
const headCap = 64

func appendBlockID(dst []byte, id wire.BlockID) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, id.Ino)
	dst = binary.LittleEndian.AppendUint32(dst, id.Stripe)
	return append(dst, id.Idx)
}

func getBlockID(src []byte) wire.BlockID {
	return wire.BlockID{
		Ino:    binary.LittleEndian.Uint64(src[0:8]),
		Stripe: binary.LittleEndian.Uint32(src[8:12]),
		Idx:    src[12],
	}
}

// appendWrite appends an opWrite head; the written bytes follow it.
func appendWrite(dst []byte, id wire.BlockID, blockLen, off uint32) []byte {
	dst = appendBlockID(dst, id)
	dst = binary.LittleEndian.AppendUint32(dst, blockLen)
	return binary.LittleEndian.AppendUint32(dst, off)
}

func decodeWrite(p []byte) (id wire.BlockID, blockLen, off uint32, data []byte, err error) {
	if len(p) < blockIDLen+8 {
		return id, 0, 0, nil, fmt.Errorf("store: short opWrite payload (%d bytes)", len(p))
	}
	id = getBlockID(p)
	blockLen = binary.LittleEndian.Uint32(p[13:17])
	off = binary.LittleEndian.Uint32(p[17:21])
	return id, blockLen, off, p[21:], nil
}

// appendEnsure appends an opEnsure payload. An opDelete payload is
// appendBlockID's.
func appendEnsure(dst []byte, id wire.BlockID, size uint32) []byte {
	return binary.LittleEndian.AppendUint32(appendBlockID(dst, id), size)
}

func decodeEnsure(p []byte) (id wire.BlockID, size uint32, err error) {
	if len(p) < blockIDLen+4 {
		return id, 0, fmt.Errorf("store: short opEnsure payload (%d bytes)", len(p))
	}
	return getBlockID(p), binary.LittleEndian.Uint32(p[13:17]), nil
}

// appendPlacement appends an opPlacement payload.
func appendPlacement(dst []byte, ino uint64, stripe uint32, pl Placement) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, ino)
	dst = binary.LittleEndian.AppendUint32(dst, stripe)
	dst = binary.LittleEndian.AppendUint64(dst, pl.Epoch)
	dst = append(dst, byte(pl.K), byte(pl.M))
	for _, n := range pl.Nodes {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	}
	return dst
}

func decodePlacement(p []byte) (ino uint64, stripe uint32, pl Placement, err error) {
	if len(p) < 22 {
		return 0, 0, pl, fmt.Errorf("store: short opPlacement payload (%d bytes)", len(p))
	}
	ino = binary.LittleEndian.Uint64(p[0:8])
	stripe = binary.LittleEndian.Uint32(p[8:12])
	pl.Epoch = binary.LittleEndian.Uint64(p[12:20])
	pl.K, pl.M = int(p[20]), int(p[21])
	for off := 22; off+4 <= len(p); off += 4 {
		pl.Nodes = append(pl.Nodes, wire.NodeID(int32(binary.LittleEndian.Uint32(p[off:]))))
	}
	return ino, stripe, pl, nil
}
