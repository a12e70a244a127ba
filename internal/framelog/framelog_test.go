package framelog

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

type frame struct {
	kind    byte
	payload []byte
}

// scanAll collects every frame Scan accepts from data.
func scanAll(data []byte) ([]frame, int64) {
	var got []frame
	tail := Scan(bytes.NewReader(data), int64(len(data)), func(kind byte, p []byte) bool {
		got = append(got, frame{kind, p})
		return true
	})
	return got, tail
}

// sampleFrames is a log of frames of assorted kinds and sizes, the empty
// payload included.
func sampleFrames() ([]frame, []byte) {
	frames := []frame{
		{1, []byte("alpha")},
		{2, nil},
		{7, bytes.Repeat([]byte{0x5a}, 300)},
		{0, []byte{0}},
		{255, []byte("last frame")},
	}
	var b []byte
	for _, f := range frames {
		b = AppendFrame(b, f.kind, f.payload)
	}
	return frames, b
}

// frameEnds returns the offset just past each frame.
func frameEnds(frames []frame) []int64 {
	var ends []int64
	var off int64
	for _, f := range frames {
		off += HeaderSize + int64(len(f.payload))
		ends = append(ends, off)
	}
	return ends
}

func sameFrames(a, b []frame) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].kind != b[i].kind || !bytes.Equal(a[i].payload, b[i].payload) {
			return false
		}
	}
	return true
}

// TestFrameLayout pins the on-disk bytes every log in the tree shares.
func TestFrameLayout(t *testing.T) {
	got := hex.EncodeToString(AppendFrame(nil, 3, []byte("abc")))
	if want := "03000000335e6a7c03616263"; got != want {
		t.Fatalf("frame bytes %s, want %s", got, want)
	}
	// Appending to a non-empty buffer frames only the new record.
	two := AppendFrame([]byte("xx"), 3, []byte("abc"))
	if hex.EncodeToString(two[2:]) != got {
		t.Fatal("AppendFrame onto a prefix changed the frame")
	}
}

// TestScanKillPoints cuts a log of N frames at every byte offset and
// flips every byte of it: the scan returns exactly the frames wholly
// before the damage and never one at or past it.
func TestScanKillPoints(t *testing.T) {
	want, data := sampleFrames()
	ends := frameEnds(want)
	for cut := 0; cut <= len(data); cut++ {
		n := 0
		for n < len(ends) && ends[n] <= int64(cut) {
			n++
		}
		wantTail := int64(0)
		if n > 0 {
			wantTail = ends[n-1]
		}
		got, tail := scanAll(data[:cut])
		if tail != wantTail || !sameFrames(got, want[:n]) {
			t.Fatalf("cut at %d: %d frames, tail %d; want %d frames, tail %d", cut, len(got), tail, n, wantTail)
		}
	}
	for at := range data {
		damaged := bytes.Clone(data)
		damaged[at] ^= 0xff
		i := 0 // the frame holding the flipped byte
		for ends[i] <= int64(at) {
			i++
		}
		start := ends[i] - HeaderSize - int64(len(want[i].payload))
		got, tail := scanAll(damaged)
		if tail != start || !sameFrames(got, want[:i]) {
			t.Fatalf("flip at %d (frame %d): %d frames, tail %d; want %d frames, tail %d", at, i, len(got), tail, i, start)
		}
	}
}

// TestScanRejectEndsPrefix: a frame the decoder rejects ends the
// committed prefix just like a bad checksum.
func TestScanRejectEndsPrefix(t *testing.T) {
	want, data := sampleFrames()
	ends := frameEnds(want)
	var seen int
	tail := Scan(bytes.NewReader(data), int64(len(data)), func(kind byte, p []byte) bool {
		if kind == 7 {
			return false
		}
		seen++
		return true
	})
	if seen != 2 || tail != ends[1] {
		t.Fatalf("reject at frame 2: accepted %d, tail %d; want 2, %d", seen, tail, ends[1])
	}
}

func TestHugeLengthPrefixBounded(t *testing.T) {
	hdr := make([]byte, HeaderSize+16)
	binary.LittleEndian.PutUint32(hdr, maxPayload+1)
	if got, tail := scanAll(hdr); len(got) != 0 || tail != 0 {
		t.Fatalf("implausible length prefix yielded %d frames, tail %d", len(got), tail)
	}
}

// TestLogAppendReopen: appends land after the committed prefix, a torn
// tail is truncated on Open, Reset empties the log, and the counters
// follow.
func TestLogAppendReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.bin")
	want, _ := sampleFrames()
	l, err := Open(path, func(byte, []byte) bool { t.Fatal("fresh log has frames"); return false })
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range want {
		h := len(f.payload) / 2
		if err := l.Append(f.kind, f.payload[:h], f.payload[h:]); err != nil {
			t.Fatal(err)
		}
	}
	ends := frameEnds(want)
	if l.Size() != ends[len(ends)-1] {
		t.Fatalf("size %d, want %d", l.Size(), ends[len(ends)-1])
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if recs, b, syncs := l.Stats(); recs != int64(len(want)) || b != l.Size() || syncs != 1 {
		t.Fatalf("stats %d/%d/%d", recs, b, syncs)
	}
	l.Close()

	// Tear the last frame.
	if err := os.Truncate(path, ends[len(ends)-1]-3); err != nil {
		t.Fatal(err)
	}
	var got []frame
	l, err = Open(path, func(kind byte, p []byte) bool {
		got = append(got, frame{kind, p})
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sameFrames(got, want[:len(want)-1]) || l.Size() != ends[len(ends)-2] {
		t.Fatalf("reopen: %d frames, size %d", len(got), l.Size())
	}
	if info, err := os.Stat(path); err != nil || info.Size() != l.Size() {
		t.Fatalf("torn tail not truncated: %v %v", info, err)
	}
	if err := l.Reset(); err != nil || l.Size() != 0 {
		t.Fatalf("reset: size %d, err %v", l.Size(), err)
	}
	l.Close()
	if info, _ := os.Stat(path); info.Size() != 0 {
		t.Fatalf("reset left %d bytes", info.Size())
	}

	// Create discards whatever was there.
	os.WriteFile(path, []byte("junk"), 0o644)
	c, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Append(9, nil, []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	b, _ := os.ReadFile(path)
	if !bytes.Equal(b, AppendFrame(nil, 9, []byte("fresh"))) {
		t.Fatalf("created log holds %q", b)
	}
}

// TestAppendPartsWritesAppendFrame: a record appended from a head and
// a payload is, byte for byte, AppendFrame's frame of head‖data, for
// every split of the payload and after the frame buffer has grown,
// shrunk and been dropped for an oversized record.
func TestAppendPartsWritesAppendFrame(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.bin")
	l, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var want []byte
	payloads := [][]byte{
		[]byte("0123456789"),
		nil,
		bytes.Repeat([]byte{0xa5}, 4096),
		[]byte("short after long"),
		bytes.Repeat([]byte{0x3c}, maxRetained+1),
		[]byte("after the oversized record"),
	}
	for i, p := range payloads {
		for _, h := range []int{0, len(p) / 3, len(p)} {
			kind := byte(i*3 + h%7)
			if err := l.Append(kind, p[:h], p[h:]); err != nil {
				t.Fatal(err)
			}
			want = AppendFrame(want, kind, p)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("appends from parts differ from AppendFrame's frames")
	}
	if cap(l.buf) > maxRetained {
		t.Fatalf("log kept a %d-byte frame buffer", cap(l.buf))
	}
}

// TestWarmAppendAllocatesNothing gates the append path: once its frame
// buffer has grown, an append from a head and a payload allocates
// nothing.
func TestWarmAppendAllocatesNothing(t *testing.T) {
	l, err := Create(filepath.Join(t.TempDir(), "log.bin"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	data := bytes.Repeat([]byte{7}, 4096)
	var head [16]byte
	if err := l.Append(1, head[:], data); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		binary.LittleEndian.PutUint64(head[:], uint64(l.Size()))
		if err := l.Append(1, head[:], data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm append allocates %.1f times", allocs)
	}
}

func TestWriteFileReadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.bin")
	if _, err := ReadFile(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file: %v, want fs.ErrNotExist", err)
	}
	for _, body := range [][]byte{[]byte("first body"), {}, []byte("body")} {
		if err := WriteFile(path, bytes.Clone(body)); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFile(path)
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("read back %q, %v; want %q", got, err, body)
		}
	}
	// The layout is body ‖ CRC-32C(body).
	if raw, _ := os.ReadFile(path); hex.EncodeToString(raw) != "626f647950c93f26" {
		t.Fatalf("file bytes %x", raw)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("temp file left behind: %v", err)
	}
	raw, _ := os.ReadFile(path)
	for at := range raw {
		bad := bytes.Clone(raw)
		bad[at] ^= 0x01
		os.WriteFile(path, bad, 0o644)
		if _, err := ReadFile(path); err == nil {
			t.Fatalf("flip at %d passed the checksum", at)
		}
	}
	os.WriteFile(path, raw[:3], 0o644)
	if _, err := ReadFile(path); err == nil {
		t.Fatal("three-byte file passed")
	}
}

// FuzzScan feeds arbitrary bytes to Open as a crash-left log. It must
// never panic or error, must return exactly the committed prefix (the
// frames re-encode to data[:tail], in order, from offset zero), must
// truncate the file to it, must accept an append after recovery, and a
// reopen must agree.
func FuzzScan(f *testing.F) {
	_, valid := sampleFrames()
	f.Add(valid)
	f.Add(valid[:len(valid)-4]) // torn mid-payload
	f.Add(valid[:HeaderSize-2]) // torn mid-header
	f.Add([]byte{})
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	huge := make([]byte, HeaderSize)
	binary.LittleEndian.PutUint32(huge, 1<<31)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "log.bin")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var got []frame
		l, err := Open(path, func(kind byte, p []byte) bool {
			got = append(got, frame{kind, p})
			return true
		})
		if err != nil {
			t.Fatalf("Open on arbitrary bytes: %v", err)
		}
		tail := l.Size()
		var refr []byte
		for _, fr := range got {
			refr = AppendFrame(refr, fr.kind, fr.payload)
		}
		if int64(len(refr)) != tail || !bytes.Equal(refr, data[:tail]) {
			t.Fatalf("%d frames do not re-encode to the committed prefix [0,%d)", len(got), tail)
		}
		if info, err := os.Stat(path); err != nil || info.Size() != tail {
			t.Fatalf("file not truncated to %d: %v %v", tail, info, err)
		}
		if err := l.Append(42, []byte("after "), []byte("recovery")); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		l.Close()

		var again []frame
		l, err = Open(path, func(kind byte, p []byte) bool {
			again = append(again, frame{kind, p})
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
		want := append(got, frame{42, []byte("after recovery")})
		if !sameFrames(again, want) {
			t.Fatalf("reopen saw %d frames, want the %d committed plus the append", len(again), len(got))
		}
	})
}
