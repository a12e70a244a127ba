package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// snapshot fabricates a combined trajectory file with a single codec
// report; values is rows of [label, ns/op, MB/s, B/op, allocs/op].
func snapshot(t *testing.T, name string, values [][]string) string {
	t.Helper()
	var rows []string
	for _, v := range values {
		rows = append(rows, `["`+strings.Join(v, `","`)+`"]`)
	}
	doc := `{"reports":[{"ID":"codec","Title":"wire codec","Header":["benchmark","ns/op","MB/s","B/op","allocs/op"],"Rows":[` +
		strings.Join(rows, ",") + `],"Notes":null}]}`
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func diff(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	t.Logf("exit=%d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	return code, out.String(), errb.String()
}

// An injected regression — ns/op more than doubled, allocs/op jumped
// past the absolute slack — must make benchdiff exit non-zero and name
// the offending cells.
func TestInjectedRegressionFails(t *testing.T) {
	base := snapshot(t, "base.json", [][]string{
		{"encode/binary", "1500", "43000", "0", "0"},
		{"decode/binary", "50", "1300000", "24", "1"},
	})
	regressed := snapshot(t, "new.json", [][]string{
		{"encode/binary", "5000", "12000", "4096", "7"}, // time 3.3x, allocs 0 -> 7
		{"decode/binary", "52", "1250000", "24", "1"},
	})
	code, out, _ := diff(t, "-base", base, "-new", regressed)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (regression must be fatal)", code)
	}
	for _, cell := range []string{"ns/op", "allocs/op"} {
		if !strings.Contains(out, "REGRESSION  codec / encode/binary / "+cell) {
			t.Errorf("output does not flag encode/binary %s regression", cell)
		}
	}
	if strings.Contains(out, "REGRESSION  codec / decode/binary") {
		t.Errorf("decode/binary moved within noise but was flagged fatal")
	}
}

// Ordinary run-to-run noise stays green in tight mode.
func TestNoiseWithinTolerancePasses(t *testing.T) {
	base := snapshot(t, "base.json", [][]string{
		{"encode/binary", "1500", "43000", "0", "0"},
		{"roundtrip/tcp", "16000", "4100", "210", "3"},
	})
	noisy := snapshot(t, "new.json", [][]string{
		{"encode/binary", "1950", "33000", "0", "0"}, // +30% time: noise
		{"roundtrip/tcp", "13000", "5000", "224", "4"},
	})
	if code, _, _ := diff(t, "-base", base, "-new", noisy); code != 0 {
		t.Fatalf("exit = %d, want 0 (within-tolerance drift must pass)", code)
	}
}

// Rows present in only one snapshot are informational: a trajectory
// that grows new benchmarks (or retires old ones) must not fail.
func TestAddedAndRemovedRowsAreNotFatal(t *testing.T) {
	base := snapshot(t, "base.json", [][]string{
		{"encode/binary", "1500", "43000", "0", "0"},
		{"retired/bench", "10", "10", "10", "1"},
	})
	grown := snapshot(t, "new.json", [][]string{
		{"encode/binary", "1500", "43000", "0", "0"},
		{"added/bench", "900000", "145", "30000", "200"},
	})
	code, out, _ := diff(t, "-base", base, "-new", grown)
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (added/removed rows are informational)", code)
	}
	if !strings.Contains(out, "only in") {
		t.Errorf("added/removed rows not mentioned in output:\n%s", out)
	}
}

// Smoke mode tolerates cross-machine time swings but still gates the
// machine-independent allocation metrics.
func TestSmokeModeGatesAllocsOnly(t *testing.T) {
	base := snapshot(t, "base.json", [][]string{
		{"encode/binary", "1500", "43000", "0", "0"},
	})
	slowMachine := snapshot(t, "slow.json", [][]string{
		{"encode/binary", "7000", "9500", "0", "0"}, // 4.7x slower hardware
	})
	if code, _, _ := diff(t, "-mode", "smoke", "-base", base, "-new", slowMachine); code != 0 {
		t.Fatalf("exit = %d, want 0 (smoke mode must absorb hardware deltas)", code)
	}
	leaky := snapshot(t, "leaky.json", [][]string{
		{"encode/binary", "7000", "9500", "65536", "40"}, // allocs appeared
	})
	if code, _, _ := diff(t, "-mode", "smoke", "-base", base, "-new", leaky); code != 1 {
		t.Fatalf("exit = %d, want 1 (allocs/op is machine-independent and stays gated in smoke mode)", code)
	}
}

// foreground_MBps is report-only: the repair rows' hot reads race the
// rebuild, so a several-fold drop beside a held repair_MBps is
// surfaced, not fatal.
func TestForegroundMBpsReportOnly(t *testing.T) {
	repair := func(name, repairMBps, fgMBps string) string {
		doc := `{"reports":[{"ID":"repair","Title":"repair","Header":["row","repair_MBps","foreground_MBps"],"Rows":[` +
			`["recover/prio","` + repairMBps + `","` + fgMBps + `"]],"Notes":null}]}`
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := repair("base.json", "400", "752")
	code, out, _ := diff(t, "-base", base, "-new", repair("fg.json", "400", "104"))
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (foreground_MBps is report-only)", code)
	}
	if !strings.Contains(out, "repair / recover/prio / foreground_MBps") {
		t.Errorf("the foreground_MBps swing is not reported:\n%s", out)
	}
	if code, _, _ := diff(t, "-base", base, "-new", repair("rb.json", "100", "752")); code != 1 {
		t.Fatalf("exit = %d, want 1 (repair_MBps stays gated)", code)
	}
}

func TestBadInputsExitTwo(t *testing.T) {
	good := snapshot(t, "good.json", [][]string{{"encode/binary", "1", "1", "0", "0"}})
	if code, _, _ := diff(t); code != 2 {
		t.Errorf("missing flags: exit != 2")
	}
	if code, _, _ := diff(t, "-base", good, "-new", filepath.Join(t.TempDir(), "absent.json")); code != 2 {
		t.Errorf("missing file: exit != 2")
	}
	empty := filepath.Join(t.TempDir(), "empty.json")
	os.WriteFile(empty, []byte(`{"reports":[]}`), 0o644)
	if code, _, _ := diff(t, "-base", good, "-new", empty); code != 2 {
		t.Errorf("empty snapshot: exit != 2")
	}
	if code, _, _ := diff(t, "-mode", "loose", "-base", good, "-new", good); code != 2 {
		t.Errorf("unknown mode: exit != 2")
	}
}

// The committed baseline must diff cleanly against itself — guards the
// parser against the real file's shape ("-" cells, rt/s suffixes).
func TestCommittedBaselineSelfDiff(t *testing.T) {
	for _, name := range []string{"BENCH_pr6.json", "BENCH_pr8.json"} {
		path := filepath.Join("..", "..", name)
		if _, err := os.Stat(path); err != nil {
			t.Logf("skip %s: %v", name, err)
			continue
		}
		if code, _, _ := diff(t, "-base", path, "-new", path); code != 0 {
			t.Errorf("%s vs itself: exit != 0", name)
		}
	}
}
