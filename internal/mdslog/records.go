package mdslog

import (
	"encoding/binary"
	"fmt"

	"repro/internal/wire"
)

// Kind names one op-log record. Each record is the state of one key
// after a mutation — a name, a stripe, or a node — so replay installs
// it and the last record per key wins: a stale log prefix replayed over
// a newer snapshot converges without any per-transition rule. Soft
// state (heartbeat times, the dead set, address freshness stamps,
// whether a drain is running or interrupted, the repair scheduler) is
// deliberately absent — it is re-learned after a restart.
type Kind uint8

const (
	// KindCreate binds a name to an ino (open-or-create's create half).
	// Replay also re-derives the owning name shard's inode-allocation
	// counter from the ino.
	KindCreate Kind = iota + 1
	// KindBind is a stripe's whole placement: node list and epoch. It
	// covers the first-touch bind and every rebind; replay installs it
	// when the stripe is unplaced or the record's epoch is newer.
	KindBind
	// KindNode is a node's durable state: placement-pool membership,
	// the drain mark, and the advertised address ("" means none).
	KindNode
)

var kindNames = map[Kind]string{KindCreate: "create", KindBind: "bind", KindNode: "node"}

// String returns the record kind's catalog name.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Record is one decoded op-log record. Exactly the fields the Kind's
// layout carries are meaningful; the rest are zero.
type Record struct {
	Kind Kind

	Ino    uint64 // KindCreate, KindBind
	Stripe uint32 // KindBind
	Epoch  uint64 // KindBind

	// Name is the file name (KindCreate) or the node's advertised
	// listen address (KindNode; "" means none).
	Name string

	Nodes []wire.NodeID // KindBind: the whole placement

	Node     wire.NodeID // KindNode
	InPool   bool        // KindNode: member of the placement pool
	Draining bool        // KindNode: a drain is in progress
}

// maxNameLen bounds the variable-length string fields so a corrupt
// record cannot drive a giant allocation during replay.
const maxNameLen = 1 << 16

// recordCap is the stack array Log.Append encodes a record into: a
// bind record of up to 26 nodes fits, a longer record moves to the
// heap.
const recordCap = 128

// KindNode state bits; any other bit set fails strict decoding.
const (
	nodeInPool   = 1 << 0
	nodeDraining = 1 << 1
)

// appendRecord appends a record's fixed-layout little-endian payload
// to dst (the framing adds kind, length, and CRC).
func appendRecord(dst []byte, r Record) ([]byte, error) {
	switch r.Kind {
	case KindCreate:
		if len(r.Name) >= maxNameLen {
			return dst, fmt.Errorf("mdslog: name too long (%d bytes)", len(r.Name))
		}
		dst = binary.LittleEndian.AppendUint64(dst, r.Ino)
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(r.Name)))
		return append(dst, r.Name...), nil
	case KindBind:
		dst = binary.LittleEndian.AppendUint64(dst, r.Ino)
		dst = binary.LittleEndian.AppendUint32(dst, r.Stripe)
		dst = binary.LittleEndian.AppendUint64(dst, r.Epoch)
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(r.Nodes)))
		for _, n := range r.Nodes {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
		}
		return dst, nil
	case KindNode:
		if len(r.Name) >= maxNameLen {
			return dst, fmt.Errorf("mdslog: addr too long (%d bytes)", len(r.Name))
		}
		var state byte
		if r.InPool {
			state |= nodeInPool
		}
		if r.Draining {
			state |= nodeDraining
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(r.Node))
		dst = append(dst, state)
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(r.Name)))
		return append(dst, r.Name...), nil
	}
	return dst, fmt.Errorf("mdslog: cannot encode kind %v", r.Kind)
}

// decodeRecord parses one payload. Decoding is strict — the payload
// length must match the kind's layout exactly and unused bits must be
// zero — so every decoded record re-encodes to the identical bytes,
// which is what lets recovery treat "CRC-valid but undecodable" as the
// end of the committed prefix.
func decodeRecord(kind byte, p []byte) (Record, error) {
	r := Record{Kind: Kind(kind)}
	switch r.Kind {
	case KindCreate:
		if len(p) < 10 {
			return r, fmt.Errorf("mdslog: short create payload (%d bytes)", len(p))
		}
		r.Ino = binary.LittleEndian.Uint64(p[0:8])
		n := int(binary.LittleEndian.Uint16(p[8:10]))
		if len(p) != 10+n {
			return r, fmt.Errorf("mdslog: create payload length %d, want %d", len(p), 10+n)
		}
		r.Name = string(p[10:])
		return r, nil
	case KindBind:
		if len(p) < 22 {
			return r, fmt.Errorf("mdslog: short bind payload (%d bytes)", len(p))
		}
		r.Ino = binary.LittleEndian.Uint64(p[0:8])
		r.Stripe = binary.LittleEndian.Uint32(p[8:12])
		r.Epoch = binary.LittleEndian.Uint64(p[12:20])
		n := int(binary.LittleEndian.Uint16(p[20:22]))
		if len(p) != 22+4*n {
			return r, fmt.Errorf("mdslog: bind payload length %d, want %d", len(p), 22+4*n)
		}
		for i := 0; i < n; i++ {
			r.Nodes = append(r.Nodes, wire.NodeID(int32(binary.LittleEndian.Uint32(p[22+4*i:]))))
		}
		return r, nil
	case KindNode:
		if len(p) < 7 {
			return r, fmt.Errorf("mdslog: short node payload (%d bytes)", len(p))
		}
		r.Node = wire.NodeID(int32(binary.LittleEndian.Uint32(p[0:4])))
		if p[4]&^(nodeInPool|nodeDraining) != 0 {
			return r, fmt.Errorf("mdslog: node state bits %#x", p[4])
		}
		r.InPool = p[4]&nodeInPool != 0
		r.Draining = p[4]&nodeDraining != 0
		n := int(binary.LittleEndian.Uint16(p[5:7]))
		if len(p) != 7+n {
			return r, fmt.Errorf("mdslog: node payload length %d, want %d", len(p), 7+n)
		}
		r.Name = string(p[7:])
		return r, nil
	}
	return r, fmt.Errorf("mdslog: unknown record kind %d", kind)
}
