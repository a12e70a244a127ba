// Package framelog is the one on-disk record format behind every
// durable log in the tree — the OSD write-ahead log and log-pool
// segment files (internal/store) and the MDS namespace op log
// (internal/mdslog) — and the one checksummed file format behind their
// checkpoints (meta.bin, snapshot.bin). Callers own their record kinds,
// payload codecs and redo logic; this package owns the bytes around
// them.
//
// A frame is, little-endian,
//
//	u32 payload length | u32 CRC-32C(kind ‖ payload) | u8 kind | payload
//
// written with a single WriteAt, so a crash can tear the last frame but
// never interleave two. Recovery (Scan) walks frames from offset 0 and
// stops at the first one that is short, implausibly long, fails its
// checksum, or is rejected by the caller's decoder: everything before
// it is the committed prefix, everything at and after it never
// finished, and Open truncates it away so the next frame never lands
// after garbage.
//
// A checksummed file (WriteFile/ReadFile) is a body followed by a u32
// CRC-32C of the body, replaced atomically: temp file, fsync, rename,
// directory fsync. A crash leaves the old file or the new one, never a
// torn mix.
package framelog

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// HeaderSize is the framing overhead per record: payload length (u32),
// CRC-32C over kind+payload (u32), kind (u8).
const HeaderSize = 9

// maxPayload bounds a single payload so a corrupt length prefix cannot
// drive a giant allocation during a scan.
const maxPayload = 1 << 26 // 64 MiB

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maxRetained bounds the frame buffer a Log keeps between appends: a
// whole 1 MiB block's WAL record fits, a one-off larger record is not
// pinned for the log's lifetime.
const maxRetained = 2 << 20

// AppendFrame appends one framed record to dst.
func AppendFrame(dst []byte, kind byte, payload []byte) []byte {
	return appendFrame(dst, kind, payload, nil)
}

// appendFrame appends one framed record whose payload is head followed
// by data.
func appendFrame(dst []byte, kind byte, head, data []byte) []byte {
	at := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(head)+len(data)))
	dst = append(dst, 0, 0, 0, 0, kind)
	dst = append(dst, head...)
	dst = append(dst, data...)
	binary.LittleEndian.PutUint32(dst[at+4:], crc32.Checksum(dst[at+8:], castagnoli))
	return dst
}

// Scan walks the frames in the first size bytes of r from offset 0,
// handing each intact one to fn, and returns the offset of the first
// frame that is torn, corrupt, or rejected (fn returned false) — the
// end of the committed prefix. Each payload is a fresh slice fn may
// keep.
func Scan(r io.ReaderAt, size int64, fn func(kind byte, payload []byte) bool) int64 {
	var off int64
	var hdr [HeaderSize]byte
	for size-off >= HeaderSize {
		if _, err := r.ReadAt(hdr[:], off); err != nil {
			break
		}
		n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		if n > maxPayload || size-off-HeaderSize < n {
			break
		}
		body := make([]byte, 1+n)
		body[0] = hdr[8]
		if _, err := r.ReadAt(body[1:], off+HeaderSize); err != nil && err != io.EOF {
			break
		}
		if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(hdr[4:8]) || !fn(body[0], body[1:]) {
			break
		}
		off += HeaderSize + n
	}
	return off
}

// Log is an append-only file of frames. It is not safe for concurrent
// use; its owner serializes access. A Log fsyncs only when its owner
// calls Sync (group commit, typically at a checkpoint); appends are
// write(2)-visible immediately, which is what the process-crash model
// preserves.
type Log struct {
	f   *os.File
	off int64 // append offset: the end of the committed prefix
	// buf is the frame buffer appends reuse, kept up to maxRetained.
	buf []byte

	records, bytes, syncs int64
}

// Open opens (or creates) the log at path, scans it, hands every
// committed frame to fn in order, and truncates the torn or rejected
// tail, leaving the log positioned to append after the committed
// prefix.
func Open(path string, fn func(kind byte, payload []byte) bool) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	tail := Scan(f, info.Size(), fn)
	if err := f.Truncate(tail); err != nil {
		f.Close()
		return nil, err
	}
	return &Log{f: f, off: tail}, nil
}

// Create creates an empty log at path, discarding any
// previous file.
func Create(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return &Log{f: f}, nil
}

// Append frames and writes one record, whose payload is head followed
// by data, with a single WriteAt, returning once the bytes are handed
// to the kernel. The record's bytes are AppendFrame's for head‖data:
// callers encode a record's fixed fields into head, typically on the
// stack, and pass its bulk payload as data, which is copied once, into
// the log's reused frame buffer. Neither slice is kept.
func (l *Log) Append(kind byte, head, data []byte) error {
	n := HeaderSize + len(head) + len(data)
	if cap(l.buf) < n {
		l.buf = make([]byte, 0, n)
	}
	frame := appendFrame(l.buf[:0], kind, head, data)
	if cap(frame) > maxRetained {
		l.buf = nil
	}
	if _, err := l.f.WriteAt(frame, l.off); err != nil {
		return err
	}
	l.off += int64(len(frame))
	l.records++
	l.bytes += int64(len(frame))
	return nil
}

// Sync flushes the log to the media.
func (l *Log) Sync() error {
	l.syncs++
	return l.f.Sync()
}

// Reset truncates the log to empty, once a checkpoint has made its
// records redundant.
func (l *Log) Reset() error {
	if err := l.f.Truncate(0); err != nil {
		return err
	}
	l.off = 0
	return nil
}

// Size returns the log length in bytes.
func (l *Log) Size() int64 { return l.off }

// Stats reports lifetime append counters: frames and framed bytes
// appended, and fsyncs issued.
func (l *Log) Stats() (records, bytes, syncs int64) { return l.records, l.bytes, l.syncs }

// Close releases the file.
func (l *Log) Close() error { return l.f.Close() }

// WriteFile atomically replaces path with body followed by its CRC-32C:
// write path+".tmp", fsync it, rename it over path, fsync the
// directory. Every step's error is returned, the directory's included,
// so a checkpoint whose rename never reached the media does not report
// success. WriteFile may append to body's backing array.
func WriteFile(path string, body []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, castagnoli)))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadFile returns the body of a file WriteFile wrote, verifying its
// checksum. A missing file's error satisfies errors.Is(err,
// fs.ErrNotExist).
func ReadFile(path string) ([]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(b) < 4 {
		return nil, fmt.Errorf("framelog: %s too short (%d bytes)", path, len(b))
	}
	body := b[:len(b)-4]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(b[len(b)-4:]) {
		return nil, fmt.Errorf("framelog: %s checksum mismatch", path)
	}
	return body, nil
}
