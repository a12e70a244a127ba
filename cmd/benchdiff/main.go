// Command benchdiff compares two combined bench-trajectory snapshots
// (the BENCH_*.json files written by `tsuebench -combined`) and fails
// when the newer one regressed beyond tolerance.
//
//	benchdiff -base BENCH_pr6.json -new BENCH_pr8.json
//	benchdiff -mode smoke -base BENCH_pr8.json -new BENCH_ci.json
//
// Cells are keyed by (report ID, row label, column name), where the row
// label is the first cell of the row — "encode/binary", "recover/prio",
// "tcp-roundtrip/pipelined". Every column name maps to a metric class that
// decides the comparison direction and the tolerance band:
//
//   - time  (ns/op, time_ms, snapshot_ms, reopen_ms) — lower is better
//   - rate  (MB/s, repair_MBps, lookups_per_s,
//     creates_per_s)                             — higher is better
//   - bytes (B/op)                               — lower is better
//   - allocs (allocs/op)                         — lower is better, with
//     absolute slack so a 0-alloc baseline does not make any nonzero
//     measurement an infinite-ratio failure
//
// Columns outside the table (workload-shape counters like blocks or
// hot_reads, per-trace fig8b throughputs) are informational: printed
// when they move a lot, never fatal. foreground_MBps is one of them on
// purpose: the repair rows' hot reads race the rebuild, so
// same-commit runs of it span several-fold. Likewise rows or reports present
// in only one snapshot are reported as added/removed, never fatal —
// the trajectory is expected to grow new rows over time.
//
// Two tolerance modes:
//
//   - tight (default): both snapshots come from the same machine via
//     `make bench-json`; catches real same-host regressions while
//     absorbing ordinary run-to-run noise.
//   - smoke: the new snapshot was regenerated on whatever hardware CI
//     happened to land on. Time and rate bands widen to
//     catastrophic-only; the allocation metrics stay meaningful because
//     B/op and allocs/op are machine-independent.
//
// Exit codes: 0 no regression, 1 regression beyond tolerance, 2 usage
// or input error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// report mirrors bench.Report's JSON shape; decoding locally keeps the
// tool usable against old snapshots even if the bench package grows.
type report struct {
	ID     string     `json:"ID"`
	Title  string     `json:"Title"`
	Header []string   `json:"Header"`
	Rows   [][]string `json:"Rows"`
	Notes  []string   `json:"Notes"`
}

type combined struct {
	Reports []*report `json:"reports"`
}

type metricClass int

const (
	classInfo   metricClass = iota // report-only, never fatal
	classTime                      // lower is better
	classRate                      // higher is better
	classBytes                     // lower is better
	classAllocs                    // lower is better, absolute slack
)

func classify(column string) metricClass {
	switch column {
	case "ns/op", "time_ms", "snapshot_ms", "reopen_ms":
		return classTime
	case "MB/s", "repair_MBps", "lookups_per_s", "creates_per_s":
		return classRate
	case "B/op":
		return classBytes
	case "allocs/op":
		return classAllocs
	}
	return classInfo
}

// band is the accepted worsening: for lower-is-better metrics a new
// value regresses when new > base*ratio + abs, for higher-is-better
// when new < base/ratio - abs. The absolute term keeps tiny baselines
// (0 allocs/op, sub-millisecond timings) from turning measurement
// jitter into infinite ratios.
type band struct {
	ratio float64
	abs   float64
}

type tolerances map[metricClass]band

var tolTight = tolerances{
	classTime:   {ratio: 2.0, abs: 0.5},
	classRate:   {ratio: 2.0, abs: 0.5},
	classBytes:  {ratio: 1.5, abs: 512},
	classAllocs: {ratio: 1.25, abs: 2},
}

var tolSmoke = tolerances{
	classTime:   {ratio: 8.0, abs: 2},
	classRate:   {ratio: 8.0, abs: 2},
	classBytes:  {ratio: 2.5, abs: 4096},
	classAllocs: {ratio: 1.5, abs: 4},
}

// parseCell extracts the leading numeric value of a table cell.
// "1962.6" parses; "60599 rt/s" parses its prefix; "-" and labels skip.
func parseCell(s string) (float64, bool) {
	s = strings.TrimSpace(s)
	end := 0
	for end < len(s) {
		c := s[end]
		if c >= '0' && c <= '9' || c == '.' || c == '-' || c == '+' || c == 'e' || c == 'E' {
			end++
			continue
		}
		break
	}
	if end == 0 {
		return 0, false
	}
	v, err := strconv.ParseFloat(s[:end], 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

type cellKey struct {
	report, row, column string
}

type cell struct {
	class metricClass
	value float64
}

// index flattens a snapshot into cells keyed by (report, row label,
// column). Duplicate row labels within a report get a #n suffix so a
// repeated label still compares positionally instead of silently
// shadowing.
func index(snap *combined) map[cellKey]cell {
	out := make(map[cellKey]cell)
	for _, rep := range snap.Reports {
		seen := make(map[string]int)
		for _, row := range rep.Rows {
			if len(row) == 0 {
				continue
			}
			label := row[0]
			if n := seen[label]; n > 0 {
				label = fmt.Sprintf("%s#%d", label, n)
			}
			seen[row[0]]++
			for i := 1; i < len(row) && i < len(rep.Header); i++ {
				v, ok := parseCell(row[i])
				if !ok {
					continue
				}
				col := rep.Header[i]
				out[cellKey{rep.ID, label, col}] = cell{class: classify(col), value: v}
			}
		}
	}
	return out
}

type finding struct {
	key        cellKey
	base, new  float64
	class      metricClass
	regression bool // beyond tolerance (fatal); false = informational move
}

func (f finding) String() string {
	dir := "↑"
	if f.new < f.base {
		dir = "↓"
	}
	pct := 0.0
	if f.base != 0 {
		pct = (f.new - f.base) / f.base * 100
	}
	return fmt.Sprintf("%s / %s / %s: %g -> %g (%s%.1f%%)",
		f.key.report, f.key.row, f.key.column, f.base, f.new, dir, pct)
}

// compare walks every cell present in both snapshots and flags moves.
// Gated classes produce fatal findings beyond their band; informational
// columns are surfaced (not failed) when they moved by more than 2x,
// just so a wildly different run shape is visible in the log.
// diskBoundReports name experiments whose gated metrics are real disk
// I/O rather than modeled time: their rates swing with the machine's
// storage stack (page cache state, fs, media), so they get twice the
// tolerance ratio of the modeled metrics in either mode.
// mds-scale qualifies through its durable rows: snapshot_ms and
// reopen_ms are real fsync-and-replay disk work, and the durable
// lookup/create rates sit behind the same storage stack.
var diskBoundReports = map[string]bool{"storage": true, "mds-scale": true}

func compare(base, new map[cellKey]cell, tol tolerances) (findings []finding, onlyBase, onlyNew []cellKey) {
	for k, b := range base {
		n, ok := new[k]
		if !ok {
			onlyBase = append(onlyBase, k)
			continue
		}
		f := finding{key: k, base: b.value, new: n.value, class: b.class}
		band, gated := tol[b.class]
		if diskBoundReports[k.report] {
			band.ratio *= 2
		}
		switch {
		case gated && lowerBetter(b.class) && n.value > b.value*band.ratio+band.abs:
			f.regression = true
		case gated && !lowerBetter(b.class) && n.value < b.value/band.ratio-band.abs:
			f.regression = true
		case !gated && movedWildly(b.value, n.value):
			// informational column; fall through with regression=false
		default:
			continue
		}
		findings = append(findings, f)
	}
	for k := range new {
		if _, ok := base[k]; !ok {
			onlyNew = append(onlyNew, k)
		}
	}
	return findings, onlyBase, onlyNew
}

func lowerBetter(c metricClass) bool { return c != classRate }

func movedWildly(base, new float64) bool {
	lo, hi := base, new
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo <= 0 {
		return hi-lo > 4 // count-like columns near zero: only big jumps
	}
	return hi/lo > 2
}

func load(path string) (*combined, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap combined
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(snap.Reports) == 0 {
		return nil, fmt.Errorf("%s: no reports (is this a tsuebench -combined file?)", path)
	}
	return &snap, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	basePath := fs.String("base", "", "baseline trajectory snapshot (BENCH_*.json)")
	newPath := fs.String("new", "", "candidate trajectory snapshot to gate")
	mode := fs.String("mode", "tight", "tolerance mode: tight (same-machine) or smoke (CI hardware, wide time/rate bands)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *basePath == "" || *newPath == "" {
		fmt.Fprintln(stderr, "benchdiff: -base and -new are required")
		fs.Usage()
		return 2
	}
	var tol tolerances
	switch *mode {
	case "tight":
		tol = tolTight
	case "smoke":
		tol = tolSmoke
	default:
		fmt.Fprintf(stderr, "benchdiff: unknown -mode %q (want tight or smoke)\n", *mode)
		return 2
	}

	baseSnap, err := load(*basePath)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	newSnap, err := load(*newPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}

	baseCells, newCells := index(baseSnap), index(newSnap)
	findings, onlyBase, onlyNew := compare(baseCells, newCells, tol)

	shared := 0
	for k := range baseCells {
		if _, ok := newCells[k]; ok {
			shared++
		}
	}
	fmt.Fprintf(stdout, "benchdiff %s: %s -> %s, %d cells compared\n", *mode, *basePath, *newPath, shared)
	if len(onlyNew) > 0 {
		fmt.Fprintf(stdout, "  %d cells only in %s (new rows are fine: the trajectory grows)\n", len(onlyNew), *newPath)
	}
	if len(onlyBase) > 0 {
		fmt.Fprintf(stdout, "  %d cells only in %s (rows dropped from the suite)\n", len(onlyBase), *basePath)
	}

	fatal := 0
	for _, f := range findings {
		if f.regression {
			fatal++
			fmt.Fprintf(stdout, "  REGRESSION  %s\n", f)
		} else {
			fmt.Fprintf(stdout, "  info        %s\n", f)
		}
	}
	if fatal > 0 {
		fmt.Fprintf(stderr, "benchdiff: %d regression(s) beyond %s tolerance\n", fatal, *mode)
		return 1
	}
	fmt.Fprintln(stdout, "  no regressions beyond tolerance")
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
