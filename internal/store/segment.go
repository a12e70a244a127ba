package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/framelog"
	"repro/internal/wire"
)

// Log pools persist as append-only segment files under <dir>/seg, one
// file per (layer, generation): a layer is one pool's stable name
// ("tsue-data/osd3/0"), a generation one incarnation of a log unit.
// Each file is a framelog log like the WAL, so the same torn-tail scan
// recovers both. A header record names the layer and
// generation (filenames are only for humans); entry records carry a
// global sequence number so replay across every file preserves append
// order; fold records mark a block's (or a whole unit's) entries as
// recycled — folded into parity — and therefore dead. A file whose
// entries are all folded is garbage and is deleted by the compactor.
const (
	segHeader    = 1 // layer name, generation
	segEntry     = 2 // seq, block, offset, buffer timestamp, payload
	segFoldBlock = 3 // block whose entries in this generation folded
	segFoldUnit  = 4 // whole generation folded (covers empty units)
)

// segKey identifies one segment file.
type segKey struct {
	layer string
	gen   uint64
}

// segFile is one active (current-era) segment file. unit is set once a
// unit-level fold record lands: every entry is dead and the compactor
// may delete the file.
type segFile struct {
	log  *framelog.Log
	path string
	unit bool
}

// SegEntry is one unfolded log entry recovered from a previous run,
// ready to be replayed into a fresh pool.
type SegEntry struct {
	Layer string
	Seq   uint64
	Block wire.BlockID
	Off   uint32
	V     int64 // buffer timestamp (time.Duration) at original append
	Data  []byte
}

// appendSegHeader appends a segHeader payload.
func appendSegHeader(dst []byte, layer string, gen uint64) []byte {
	return append(binary.LittleEndian.AppendUint64(dst, gen), layer...)
}

func decodeSegHeader(p []byte) (layer string, gen uint64, err error) {
	if len(p) < 8 {
		return "", 0, fmt.Errorf("store: short segment header (%d bytes)", len(p))
	}
	return string(p[8:]), binary.LittleEndian.Uint64(p), nil
}

// appendSegEntry appends a segEntry head; the entry's payload follows
// it.
func appendSegEntry(dst []byte, seq uint64, block wire.BlockID, off uint32, v int64) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	dst = appendBlockID(dst, block)
	dst = binary.LittleEndian.AppendUint32(dst, off)
	return binary.LittleEndian.AppendUint64(dst, uint64(v))
}

func decodeSegEntry(p []byte) (seq uint64, block wire.BlockID, off uint32, v int64, data []byte, err error) {
	if len(p) < 20+blockIDLen {
		return 0, block, 0, 0, nil, fmt.Errorf("store: short segment entry (%d bytes)", len(p))
	}
	seq = binary.LittleEndian.Uint64(p)
	block = getBlockID(p[8:])
	off = binary.LittleEndian.Uint32(p[8+blockIDLen:])
	v = int64(binary.LittleEndian.Uint64(p[12+blockIDLen:]))
	return seq, block, off, v, p[20+blockIDLen:], nil
}

// segPath builds a debuggable filename; the header record is the
// authoritative identity.
func segPath(dir string, era uint32, layer string, gen uint64) string {
	san := strings.NewReplacer("/", "_", string(filepath.Separator), "_").Replace(layer)
	return filepath.Join(dir, "seg", fmt.Sprintf("e%04d-%s-g%06d.seg", era, san, gen))
}

// scanSegments reads every segment file under <dir>/seg, nets folds
// against entries, and returns the surviving entries in global append
// order plus the scanned file paths (all garbage once replayed).
func scanSegments(dir string) (entries []SegEntry, files []string, err error) {
	names, err := os.ReadDir(filepath.Join(dir, "seg"))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, nil
		}
		return nil, nil, err
	}
	for _, de := range names {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".seg") {
			continue
		}
		path := filepath.Join(dir, "seg", de.Name())
		files = append(files, path)
		ents, err := scanSegmentFile(path)
		if err != nil {
			return nil, nil, err
		}
		entries = append(entries, ents...)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Seq < entries[j].Seq })
	return entries, files, nil
}

// scanSegmentFile recovers one file's unfolded entries. The framelog
// scan stops at a torn tail; a file without an intact header is treated
// as fully torn (it held nothing committed), and a unit fold kills the
// whole generation.
func scanSegmentFile(path string) ([]SegEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	var (
		layer  string
		header bool
		dead   bool
		ents   []SegEntry
		folded = make(map[wire.BlockID]bool)
	)
	framelog.Scan(f, info.Size(), func(kind byte, p []byte) bool {
		if !header {
			var err error
			layer, _, err = decodeSegHeader(p)
			header = kind == segHeader && err == nil
			return header
		}
		switch kind {
		case segEntry:
			if seq, block, off, v, data, err := decodeSegEntry(p); err == nil {
				ents = append(ents, SegEntry{Layer: layer, Seq: seq, Block: block, Off: off, V: v, Data: data})
			}
		case segFoldBlock:
			if len(p) >= blockIDLen {
				folded[getBlockID(p)] = true
			}
		case segFoldUnit:
			dead = true // everything in this generation is dead
			return false
		}
		return true
	})
	if dead {
		return nil, nil
	}
	live := ents[:0]
	for _, e := range ents {
		if !folded[e.Block] {
			live = append(live, e)
		}
	}
	return live, nil
}
