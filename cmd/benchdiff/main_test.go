package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeSnap writes a combined snapshot holding reps.
func writeSnap(t *testing.T, name string, reps ...*report) string {
	t.Helper()
	data, err := json.Marshal(combined{Reports: reps})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// gateReports fabricates the committed snapshot's three reports; scale
// maps (report, row, column, value) to the value written, so a test can
// perturb any cell.
func gateReports(scale func(rep, row, col string, v float64) float64) []*report {
	fig5 := &report{ID: "fig5", Header: []string{"rs", "trace", "method", "c=4", "c=16", "c=64"}}
	for _, tn := range []string{"ali", "ten"} {
		for i, method := range []string{"fo", "pl", "tsue"} {
			row := []string{"RS(6,4)", tn, method}
			for j, col := range fig5.Header[3:] {
				v := scale("fig5", "RS(6,4)/"+tn+"/"+method, col, float64(5+3*i)*float64(1+j))
				row = append(row, fmt.Sprintf("%.1f", v))
			}
			fig5.Rows = append(fig5.Rows, row)
		}
	}
	fig8b := &report{ID: "fig8b", Header: []string{"method", "workers", "src10", "hm0"}}
	for method, bw := range map[string]float64{"fo": 220.8, "pl": 0.02, "parix": 0.38, "tsue": 190.8} {
		row := []string{method, "4"}
		for _, col := range fig8b.Header[2:] {
			row = append(row, fmt.Sprintf("%.2f", scale("fig8b", method, col, bw)))
		}
		fig8b.Rows = append(fig8b.Rows, row)
	}
	repair := &report{ID: "repair", Header: []string{"scenario", "hot_reads", "time_ms", "repair_MBps", "foreground_MBps"}}
	for _, sc := range []string{"recover/prio", "drain"} {
		repair.Rows = append(repair.Rows, []string{sc,
			fmt.Sprintf("%.0f", scale("repair", sc, "hot_reads", 500)),
			fmt.Sprintf("%.2f", scale("repair", sc, "time_ms", 2.88)),
			fmt.Sprintf("%.1f", scale("repair", sc, "repair_MBps", 1962.6)),
			fmt.Sprintf("%.1f", scale("repair", sc, "foreground_MBps", 700)),
		})
	}
	return []*report{repair, fig8b, fig5}
}

func unchanged(_, _, _ string, v float64) float64 { return v }

func diff(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	t.Logf("exit=%d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	return code, out.String(), errb.String()
}

// One TSUE fig5 cell 40 % lower is a regression: benchdiff exits 1 and
// names exactly that cell.
func TestInjectedRegressionFails(t *testing.T) {
	base := writeSnap(t, "base.json", gateReports(unchanged)...)
	regressed := writeSnap(t, "new.json", gateReports(func(rep, row, col string, v float64) float64 {
		if rep == "fig5" && row == "RS(6,4)/ali/tsue" && col == "c=16" {
			return v * 0.6
		}
		return v
	})...)
	code, out, _ := diff(t, "-base", base, "-new", regressed)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (regression must be fatal)", code)
	}
	if !strings.Contains(out, "REGRESSION  fig5 / RS(6,4)/ali/tsue / c=16") {
		t.Errorf("output does not flag the fig5 tsue c=16 cell")
	}
	if n := strings.Count(out, "REGRESSION"); n != 1 {
		t.Errorf("%d regressions flagged, want 1", n)
	}
}

// ±5 % noise on every cell stays green, and so does a rounding step on
// a near-zero fig8b cell (0.02 -> 0.01 MB/s).
func TestNoiseWithinTolerancePasses(t *testing.T) {
	base := writeSnap(t, "base.json", gateReports(unchanged)...)
	flip := 1.0
	noisy := writeSnap(t, "new.json", gateReports(func(rep, row, col string, v float64) float64 {
		if rep == "fig8b" && row == "pl" {
			return v / 2
		}
		flip = -flip
		return v * (1 + 0.05*flip)
	})...)
	if code, _, _ := diff(t, "-base", base, "-new", noisy); code != 0 {
		t.Fatalf("exit = %d, want 0 (within-tolerance drift must pass)", code)
	}
}

// Rows present in only one snapshot are informational: a suite that
// grows new rows (or retires old ones) must not fail.
func TestAddedAndRemovedRowsAreNotFatal(t *testing.T) {
	reps := gateReports(unchanged)
	base := writeSnap(t, "base.json", reps...)
	fig5 := reps[2]
	fig5.Rows[0] = []string{"RS(12,4)", "ali", "fo", "1", "1", "1"}
	grown := writeSnap(t, "new.json", reps...)
	code, out, _ := diff(t, "-base", base, "-new", grown)
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (added/removed rows are informational)", code)
	}
	if !strings.Contains(out, "only in") {
		t.Errorf("added/removed rows not mentioned in output:\n%s", out)
	}
}

// foreground_MBps is report-only: the repair rows' hot reads race the
// rebuild, so a several-fold drop beside a held repair_MBps is
// surfaced, not fatal. repair_MBps and time_ms stay gated.
func TestForegroundMBpsReportOnly(t *testing.T) {
	base := writeSnap(t, "base.json", gateReports(unchanged)...)
	only := func(col string, f float64) []*report {
		return gateReports(func(rep, row, c string, v float64) float64 {
			if rep == "repair" && row == "recover/prio" && c == col {
				return v * f
			}
			return v
		})
	}
	code, out, _ := diff(t, "-base", base, "-new", writeSnap(t, "fg.json", only("foreground_MBps", 0.15)...))
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (foreground_MBps is report-only)", code)
	}
	if !strings.Contains(out, "repair / recover/prio / foreground_MBps") {
		t.Errorf("the foreground_MBps swing is not reported:\n%s", out)
	}
	if code, _, _ := diff(t, "-base", base, "-new", writeSnap(t, "rb.json", only("repair_MBps", 0.25)...)); code != 1 {
		t.Fatalf("exit = %d, want 1 (repair_MBps stays gated)", code)
	}
	if code, _, _ := diff(t, "-base", base, "-new", writeSnap(t, "tm.json", only("time_ms", 2)...)); code != 1 {
		t.Fatalf("exit = %d, want 1 (time_ms stays gated)", code)
	}
}

func TestBadInputsExitTwo(t *testing.T) {
	good := writeSnap(t, "good.json", gateReports(unchanged)...)
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
}

// The committed snapshot must diff cleanly against itself and compare
// every gated report — guards the parser against the real file's shape
// ("-" cells, repeated labels).
func TestCommittedBaselineSelfDiff(t *testing.T) {
	path := filepath.Join("..", "..", "BENCH_pr21.json")
	code, out, _ := diff(t, "-base", path, "-new", path)
	if code != 0 {
		t.Fatalf("committed snapshot vs itself: exit %d", code)
	}
	snap, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	gated := map[string]int{}
	for k, c := range index(snap) {
		if c.class != classInfo {
			gated[k.report]++
		}
	}
	for _, id := range []string{"repair", "fig8b", "fig5"} {
		if gated[id] == 0 {
			t.Errorf("no gated cells in report %s:\n%s", id, out)
		}
	}
}
