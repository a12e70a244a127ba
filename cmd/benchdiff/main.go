// Command benchdiff compares two combined bench snapshots (the
// BENCH_*.json files written by `tsuebench -combined`) and fails when
// the newer one regressed beyond tolerance.
//
//	benchdiff -base BENCH_pr21.json -new /tmp/bench.json
//
// The committed snapshot holds only modeled-time reports (repair, fig8b,
// fig5), so one tolerance band fits every gated cell. Cells are keyed by
// (report ID, row label, column name), where the row label is the row's
// leading text cells joined by "/" — "RS(6,4)/ten/tsue", "plr",
// "recover/prio". Each column is one of:
//
//   - gated, higher is better: fig5's c=N columns (update IOPS), fig8b's
//     per-trace columns (recovery MB/s) and repair_MBps
//   - gated, lower is better: time_ms
//   - informational: everything else, printed when it moves a lot and
//     never fatal. The repair rows' hot_reads, degraded, last_degr_% and
//     foreground_MBps are here on purpose: their readers race the rebuild
//     in wall time, so same-commit runs of them span several-fold.
//
// Rows or reports present in only one snapshot are reported as
// added/removed, never fatal.
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
	classLower                     // gated, lower is better
	classHigher                    // gated, higher is better
)

func classify(reportID, column string) metricClass {
	switch {
	case column == "time_ms":
		return classLower
	case column == "repair_MBps", strings.HasPrefix(column, "c="):
		return classHigher
	case reportID == "fig8b" && column != "workers": // one column per trace
		return classHigher
	}
	return classInfo
}

// The tolerance band: a lower-is-better cell regresses when new >
// base*tolRatio + tolAbs, a higher-is-better one when new <
// base/tolRatio - tolAbs. Across twelve same-commit runs on a 2-core
// host, fig5 cells spread by up to 1.13x (max/min) and the fig8b plr
// row by up to 1.47x (it is bimodal: about 9 MB/s, now and then 10.6 or
// 13.1); every other fig8b cell and repair's gated cells did not move.
// The ratio covers the plr spread whichever mode the committed snapshot
// caught. tolAbs keeps the near-zero fig8b cells (pl and parix at
// 0.02–0.5 MB/s, printed to two decimals) from turning a rounding step
// into a ratio.
const (
	tolRatio = 1.5
	tolAbs   = 0.05
)

// parseCell extracts the leading numeric value of a table cell.
// "1962.6" parses; "157us" parses its prefix; "-" and labels skip.
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

// rowLabel joins the row's leading text cells: everything before its
// first number or "-" placeholder.
func rowLabel(row []string) string {
	n := 0
	for n < len(row) {
		if _, num := parseCell(row[n]); num || row[n] == "-" {
			break
		}
		n++
	}
	return strings.Join(row[:n], "/")
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
			first := rowLabel(row)
			label := first
			if n := seen[first]; n > 0 {
				label = fmt.Sprintf("%s#%d", first, n)
			}
			seen[first]++
			for i := 1; i < len(row) && i < len(rep.Header); i++ {
				v, ok := parseCell(row[i])
				if !ok {
					continue
				}
				col := rep.Header[i]
				out[cellKey{rep.ID, label, col}] = cell{class: classify(rep.ID, col), value: v}
			}
		}
	}
	return out
}

type finding struct {
	key        cellKey
	base, new  float64
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
// Gated cells produce fatal findings beyond the band; informational
// cells are surfaced (not failed) when they moved by more than 2x, just
// so a wildly different run shape is visible in the log.
func compare(base, new map[cellKey]cell) (findings []finding, onlyBase, onlyNew []cellKey) {
	for k, b := range base {
		n, ok := new[k]
		if !ok {
			onlyBase = append(onlyBase, k)
			continue
		}
		f := finding{key: k, base: b.value, new: n.value}
		switch {
		case b.class == classLower && n.value > b.value*tolRatio+tolAbs:
			f.regression = true
		case b.class == classHigher && n.value < b.value/tolRatio-tolAbs:
			f.regression = true
		case b.class == classInfo && movedWildly(b.value, n.value):
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
	basePath := fs.String("base", "", "baseline snapshot (BENCH_*.json)")
	newPath := fs.String("new", "", "candidate snapshot to gate")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *basePath == "" || *newPath == "" {
		fmt.Fprintln(stderr, "benchdiff: -base and -new are required")
		fs.Usage()
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
	findings, onlyBase, onlyNew := compare(baseCells, newCells)

	shared := len(baseCells) - len(onlyBase)
	fmt.Fprintf(stdout, "benchdiff: %s -> %s, %d cells compared (band %.2fx + %g)\n", *basePath, *newPath, shared, tolRatio, tolAbs)
	if len(onlyNew) > 0 {
		fmt.Fprintf(stdout, "  %d cells only in %s (new rows are fine)\n", len(onlyNew), *newPath)
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
		fmt.Fprintf(stderr, "benchdiff: %d regression(s) beyond tolerance\n", fatal)
		return 1
	}
	fmt.Fprintln(stdout, "  no regressions beyond tolerance")
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
