package mdslog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"

	"repro/internal/framelog"
	"repro/internal/wire"
)

// snapshotVersion guards the snapshot file layout. Version 2 holds one
// KindNode record per node and goes with the three-kind op log; a
// version-1 directory is refused, never replayed with its retired
// record kinds cut off as a torn tail.
const snapshotVersion = 2

// State is the neutral serialized form of the MDS's durable state: the
// namespace (names, inodes, per-stripe placements with epochs), the
// placement pool in order (placement determinism depends on pool
// order), and the durable state of every node with an address or a
// drain in progress. Soft state — heartbeat times, the dead set,
// address freshness, the repair scheduler — is deliberately absent.
type State struct {
	// K, M, Shards pin the stripe geometry and the namespace shard
	// count. Both feed deterministic placement (the shard choice
	// decides a file's ino range, inos feed place()), so a reopen with
	// different values would silently re-place everything; Open-side
	// validation refuses instead.
	K, M, Shards int

	Files []FileState
	// Pool is the placement pool in its exact order.
	Pool []wire.NodeID
	// Nodes holds the KindNode record of every node with an address or
	// a drain in progress — the record the op log would replay last.
	// Whether a drain was running or interrupted is not recorded: the
	// engine executing a running drain died with the process, so a
	// reopen demotes every drain to interrupted-awaiting-resume.
	Nodes []Record
}

// FileState is one file: its name, inode, and placed stripes.
type FileState struct {
	Name    string
	Ino     uint64
	Stripes []StripeState
}

// StripeState is one placed stripe: index, epoch, and node list.
type StripeState struct {
	Stripe uint32
	Epoch  uint64
	Nodes  []wire.NodeID
}

func encodeSnapshot(st *State) ([]byte, error) {
	var b []byte
	u16 := func(v uint16) { b = binary.LittleEndian.AppendUint16(b, v) }
	u32 := func(v uint32) { b = binary.LittleEndian.AppendUint32(b, v) }
	u64 := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	u32(snapshotVersion)
	u16(uint16(st.K))
	u16(uint16(st.M))
	u32(uint32(st.Shards))
	u32(uint32(len(st.Pool)))
	for _, n := range st.Pool {
		u32(uint32(n))
	}
	u32(uint32(len(st.Files)))
	for _, f := range st.Files {
		u16(uint16(len(f.Name)))
		b = append(b, f.Name...)
		u64(f.Ino)
		u32(uint32(len(f.Stripes)))
		for _, s := range f.Stripes {
			u32(s.Stripe)
			u64(s.Epoch)
			u16(uint16(len(s.Nodes)))
			for _, n := range s.Nodes {
				u32(uint32(n))
			}
		}
	}
	u32(uint32(len(st.Nodes)))
	for _, r := range st.Nodes {
		at := len(b)
		u16(0) // the record's length, set once it is appended
		var err error
		if b, err = appendRecord(b, r); err != nil {
			return nil, err
		}
		binary.LittleEndian.PutUint16(b[at:], uint16(len(b)-at-2))
	}
	return b, nil
}

func decodeSnapshot(body []byte) (*State, error) {
	var off int
	need := func(n int) error {
		if len(body)-off < n {
			return fmt.Errorf("mdslog: truncated snapshot at offset %d", off)
		}
		return nil
	}
	u16 := func() uint16 { v := binary.LittleEndian.Uint16(body[off:]); off += 2; return v }
	u32 := func() uint32 { v := binary.LittleEndian.Uint32(body[off:]); off += 4; return v }
	u64 := func() uint64 { v := binary.LittleEndian.Uint64(body[off:]); off += 8; return v }
	if err := need(12); err != nil {
		return nil, err
	}
	if v := u32(); v != snapshotVersion {
		return nil, fmt.Errorf("mdslog: snapshot version %d, want %d", v, snapshotVersion)
	}
	st := &State{}
	st.K = int(u16())
	st.M = int(u16())
	st.Shards = int(u32())
	if err := need(4); err != nil {
		return nil, err
	}
	np := u32()
	if err := need(int(np) * 4); err != nil {
		return nil, err
	}
	for ; np > 0; np-- {
		st.Pool = append(st.Pool, wire.NodeID(int32(u32())))
	}
	if err := need(4); err != nil {
		return nil, err
	}
	for nf := u32(); nf > 0; nf-- {
		if err := need(2); err != nil {
			return nil, err
		}
		nl := int(u16())
		if err := need(nl + 12); err != nil {
			return nil, err
		}
		f := FileState{Name: string(body[off : off+nl])}
		off += nl
		f.Ino = u64()
		for ns := u32(); ns > 0; ns-- {
			if err := need(14); err != nil {
				return nil, err
			}
			s := StripeState{Stripe: u32(), Epoch: u64()}
			nn := int(u16())
			if err := need(nn * 4); err != nil {
				return nil, err
			}
			for ; nn > 0; nn-- {
				s.Nodes = append(s.Nodes, wire.NodeID(int32(u32())))
			}
			f.Stripes = append(f.Stripes, s)
		}
		st.Files = append(st.Files, f)
	}
	if err := need(4); err != nil {
		return nil, err
	}
	for nn := u32(); nn > 0; nn-- {
		if err := need(2); err != nil {
			return nil, err
		}
		pl := int(u16())
		if err := need(pl); err != nil {
			return nil, err
		}
		r, err := decodeRecord(byte(KindNode), body[off:off+pl])
		if err != nil {
			return nil, err
		}
		off += pl
		st.Nodes = append(st.Nodes, r)
	}
	return st, nil
}

// writeSnapshot persists the state atomically as snapshot.bin.
func writeSnapshot(dir string, st *State) error {
	b, err := encodeSnapshot(st)
	if err != nil {
		return err
	}
	return framelog.WriteFile(filepath.Join(dir, "snapshot.bin"), b)
}

// readSnapshot loads the snapshot; a missing file means a fresh data
// directory and returns nil.
func readSnapshot(dir string) (*State, error) {
	b, err := framelog.ReadFile(filepath.Join(dir, "snapshot.bin"))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return decodeSnapshot(b)
}
