package bench

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/framelog"
	"repro/internal/store"
	"repro/internal/wire"
)

// Storage is the durable-engine extension: it measures the per-OSD
// storage engine (WAL + paged block file + buffer pool) directly, with
// the two knobs an operator actually turns — the WAL fsync policy on
// the write path, and the buffer pool on the read path — plus the cost
// of a crash-reopen (WAL redo). Rates are real wall-clock disk I/O, so
// absolute numbers vary by machine; the shape (batched >> every-record,
// warm >> cold) is the contract.
func Storage(ctx context.Context, s Scale) (*Report, error) {
	rep := &Report{
		ID:     "storage",
		Title:  "Extension: durable OSD storage engine (WAL-backed block store)",
		Header: []string{"op", "MB/s", "time_ms"},
	}
	dir, err := os.MkdirTemp("", "tsuebench-storage-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	blockSize := s.BlockSize
	nBlocks := int(s.FileSize / int64(blockSize))
	if nBlocks > 128 {
		nBlocks = 128
	}
	if nBlocks < 16 {
		nBlocks = 16
	}
	total := float64(nBlocks) * float64(blockSize)
	payload := make([]byte, blockSize)
	rand.New(rand.NewSource(s.Seed)).Read(payload)

	row := func(op string, bytes float64, el time.Duration) {
		mbps := "-"
		if bytes > 0 {
			mbps = fmt.Sprintf("%.1f", bytes/1e6/el.Seconds())
		}
		rep.Rows = append(rep.Rows, []string{op, mbps, fmt.Sprintf("%.2f", float64(el)/float64(time.Millisecond))})
	}
	writeAll := func(eng *store.Engine) error {
		for i := 0; i < nBlocks; i++ {
			if err := eng.WriteFull(wire.BlockID{Ino: 1, Stripe: uint32(i)}, payload); err != nil {
				return err
			}
		}
		return nil
	}

	// Write path: group-commit WAL vs fsync-per-record.
	var warmEng *store.Engine
	for _, pol := range []struct {
		label string
		sync  framelog.SyncPolicy
	}{
		{"write sync=batched", framelog.SyncBatched},
		{"write sync=every-record", framelog.SyncEveryRecord},
	} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		eng, err := store.Open(filepath.Join(dir, pol.label), store.Options{Sync: pol.sync})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := writeAll(eng); err != nil {
			eng.Close()
			return nil, err
		}
		if err := eng.Checkpoint(); err != nil {
			eng.Close()
			return nil, err
		}
		row(pol.label, total, time.Since(start))
		if pol.sync == framelog.SyncBatched {
			warmEng = eng // reads below run against this populated engine
		} else {
			eng.Close()
		}
	}

	// Read path: buffer-pool hits vs page-file misses.
	readAll := func() error {
		for i := 0; i < nBlocks; i++ {
			if _, err := warmEng.ReadRange(wire.BlockID{Ino: 1, Stripe: uint32(i)}, 0, blockSize); err != nil {
				return err
			}
		}
		return nil
	}
	start := time.Now()
	if err := readAll(); err != nil {
		warmEng.Close()
		return nil, err
	}
	row("read warm-cache", total, time.Since(start))
	if err := warmEng.DropCaches(); err != nil {
		warmEng.Close()
		return nil, err
	}
	start = time.Now()
	if err := readAll(); err != nil {
		warmEng.Close()
		return nil, err
	}
	row("read cold-cache", total, time.Since(start))
	warmEng.Close()

	// Crash-reopen: every write still in the WAL (no checkpoint), so
	// Open pays a full redo pass.
	crashDir := filepath.Join(dir, "crash")
	eng, err := store.Open(crashDir, store.Options{})
	if err != nil {
		return nil, err
	}
	if err := writeAll(eng); err != nil {
		eng.Close()
		return nil, err
	}
	eng.Crash()
	eng.Close()
	start = time.Now()
	eng, err = store.Open(crashDir, store.Options{})
	if err != nil {
		return nil, err
	}
	row("reopen wal-redo", total, time.Since(start))
	eng.Close()

	rep.Notes = append(rep.Notes,
		"real disk I/O: absolute rates are machine-dependent; the contract is the shape (batched >> every-record writes, warm >> cold reads)",
		fmt.Sprintf("%d blocks x %d KiB per phase", nBlocks, blockSize>>10))
	return rep, nil
}
