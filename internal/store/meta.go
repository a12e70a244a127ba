package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"

	"repro/internal/framelog"
	"repro/internal/wire"
)

// metaVersion guards the checkpoint file layout.
const metaVersion = 2

// meta is the engine's checkpointed state: everything the WAL carries
// between checkpoints, in its folded form. Writing it as meta.bin, a
// framelog checksummed file, and then truncating the WAL is the
// checkpoint.
type meta struct {
	era    uint32
	seq    uint64
	npages uint32
	free   []uint32
	blocks map[wire.BlockID]*blockMeta
	places map[stripeKey]Placement
}

// blockMeta is the block table entry: logical length plus the page run
// holding the bytes.
type blockMeta struct {
	length uint32
	pages  []uint32
}

// stripeKey identifies a stripe across blocks.
type stripeKey struct {
	Ino    uint64
	Stripe uint32
}

// Placement is a persisted stripe placement: enough for a reopened OSD
// to seed its placement table before replaying log segments. K is zero
// while the owner knows the stripe's nodes and epoch but not its
// geometry.
type Placement struct {
	K, M  int
	Epoch uint64
	Nodes []wire.NodeID
}

func encodeMeta(m *meta) []byte {
	var b []byte
	u32 := func(v uint32) { b = binary.LittleEndian.AppendUint32(b, v) }
	u64 := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	u32(metaVersion)
	u32(m.era)
	u64(m.seq)
	u32(m.npages)
	u32(uint32(len(m.free)))
	for _, pg := range m.free {
		u32(pg)
	}
	u32(uint32(len(m.blocks)))
	for id, bm := range m.blocks {
		b = appendBlockID(b, id)
		u32(bm.length)
		u32(uint32(len(bm.pages)))
		for _, pg := range bm.pages {
			u32(pg)
		}
	}
	u32(uint32(len(m.places)))
	for k, p := range m.places {
		u64(k.Ino)
		u32(k.Stripe)
		u64(p.Epoch)
		b = append(b, byte(p.K), byte(p.M))
		u32(uint32(len(p.Nodes)))
		for _, n := range p.Nodes {
			u32(uint32(n))
		}
	}
	return b
}

func decodeMeta(body []byte) (*meta, error) {
	var off int
	need := func(n int) error {
		if len(body)-off < n {
			return fmt.Errorf("store: truncated meta at offset %d", off)
		}
		return nil
	}
	u32 := func() uint32 { v := binary.LittleEndian.Uint32(body[off:]); off += 4; return v }
	u64 := func() uint64 { v := binary.LittleEndian.Uint64(body[off:]); off += 8; return v }
	if err := need(20); err != nil {
		return nil, err
	}
	if v := u32(); v != metaVersion {
		return nil, fmt.Errorf("store: meta version %d, want %d", v, metaVersion)
	}
	m := &meta{
		blocks: make(map[wire.BlockID]*blockMeta),
		places: make(map[stripeKey]Placement),
	}
	m.era = u32()
	m.seq = u64()
	m.npages = u32()
	if err := need(4); err != nil {
		return nil, err
	}
	for n := u32(); n > 0; n-- {
		if err := need(4); err != nil {
			return nil, err
		}
		m.free = append(m.free, u32())
	}
	if err := need(4); err != nil {
		return nil, err
	}
	for n := u32(); n > 0; n-- {
		if err := need(blockIDLen + 8); err != nil {
			return nil, err
		}
		id := getBlockID(body[off:])
		off += blockIDLen
		bm := &blockMeta{length: u32()}
		np := u32()
		if err := need(int(np) * 4); err != nil {
			return nil, err
		}
		for ; np > 0; np-- {
			bm.pages = append(bm.pages, u32())
		}
		m.blocks[id] = bm
	}
	if err := need(4); err != nil {
		return nil, err
	}
	for n := u32(); n > 0; n-- {
		if err := need(26); err != nil {
			return nil, err
		}
		k := stripeKey{Ino: u64(), Stripe: u32()}
		p := Placement{Epoch: u64(), K: int(body[off]), M: int(body[off+1])}
		off += 2
		nn := u32()
		if err := need(int(nn) * 4); err != nil {
			return nil, err
		}
		for ; nn > 0; nn-- {
			p.Nodes = append(p.Nodes, wire.NodeID(int32(u32())))
		}
		m.places[k] = p
	}
	return m, nil
}

// writeMeta persists m atomically as meta.bin.
func writeMeta(dir string, m *meta) error {
	return framelog.WriteFile(filepath.Join(dir, "meta.bin"), encodeMeta(m))
}

// readMeta loads the checkpoint; a missing file is a fresh data dir.
func readMeta(dir string) (*meta, error) {
	b, err := framelog.ReadFile(filepath.Join(dir, "meta.bin"))
	if errors.Is(err, fs.ErrNotExist) {
		return &meta{
			blocks: make(map[wire.BlockID]*blockMeta),
			places: make(map[stripeKey]Placement),
		}, nil
	}
	if err != nil {
		return nil, err
	}
	return decodeMeta(b)
}
