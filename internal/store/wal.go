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
// little-endian.

const blockIDLen = 13

func putBlockID(dst []byte, id wire.BlockID) {
	binary.LittleEndian.PutUint64(dst[0:8], id.Ino)
	binary.LittleEndian.PutUint32(dst[8:12], id.Stripe)
	dst[12] = id.Idx
}

func getBlockID(src []byte) wire.BlockID {
	return wire.BlockID{
		Ino:    binary.LittleEndian.Uint64(src[0:8]),
		Stripe: binary.LittleEndian.Uint32(src[8:12]),
		Idx:    src[12],
	}
}

func encodeWrite(id wire.BlockID, blockLen, off uint32, data []byte) []byte {
	p := make([]byte, blockIDLen+8+len(data))
	putBlockID(p, id)
	binary.LittleEndian.PutUint32(p[13:17], blockLen)
	binary.LittleEndian.PutUint32(p[17:21], off)
	copy(p[21:], data)
	return p
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

func encodeDelete(id wire.BlockID) []byte {
	p := make([]byte, blockIDLen)
	putBlockID(p, id)
	return p
}

func encodeEnsure(id wire.BlockID, size uint32) []byte {
	p := make([]byte, blockIDLen+4)
	putBlockID(p, id)
	binary.LittleEndian.PutUint32(p[13:17], size)
	return p
}

func decodeEnsure(p []byte) (id wire.BlockID, size uint32, err error) {
	if len(p) < blockIDLen+4 {
		return id, 0, fmt.Errorf("store: short opEnsure payload (%d bytes)", len(p))
	}
	return getBlockID(p), binary.LittleEndian.Uint32(p[13:17]), nil
}

func encodePlacement(ino uint64, stripe uint32, pl Placement) []byte {
	p := make([]byte, 22+4*len(pl.Nodes))
	binary.LittleEndian.PutUint64(p[0:8], ino)
	binary.LittleEndian.PutUint32(p[8:12], stripe)
	binary.LittleEndian.PutUint64(p[12:20], pl.Epoch)
	p[20], p[21] = byte(pl.K), byte(pl.M)
	for i, n := range pl.Nodes {
		binary.LittleEndian.PutUint32(p[22+4*i:], uint32(n))
	}
	return p
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
