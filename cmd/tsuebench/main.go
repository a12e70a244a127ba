// Command tsuebench regenerates the paper's evaluation artifacts.
//
// Usage:
//
//	tsuebench                         # all experiments at quick scale
//	tsuebench -exp fig5 -scale paper  # one experiment, paper scale
//	tsuebench -exp table1 -ops 20000 -osds 16
//	tsuebench -exp recovery -recovery-workers 1,4,16
//	tsuebench -exp recovery-multi     # fail, recover, fail another, recover
//	tsuebench -exp repair             # read-through repair (FIFO vs prioritized), drain/decommission, capped-drain sweep
//	tsuebench -exp repair -max-rebuild-mbps 50   # explicit scheduler cap for the capped drain row
//	tsuebench -exp fig8b -fig8b-workers 1,4,16
//	tsuebench -exp mds-scale          # metadata sharding: lookup/create + StripesOn vs shard count
//	tsuebench -exp scenario           # multi-tenant soak with scheduled fault injection + invariant checks
//	tsuebench -exp scenario -scenario churn -tenants 4 -fault-seed 7 -soak-duration 30s
//	tsuebench -exp fig5 -json         # also write machine-readable BENCH_fig5.json
//	tsuebench -exp repair,fig8b,fig5 -combined BENCH_pr21.json
//	                                  # several experiments, one combined JSON snapshot (make bench-json)
//
// A SIGINT/SIGTERM cancels the run context: the in-flight experiment
// aborts at its next operation instead of running to completion.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/bench"
	"repro/internal/scenario"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment id ("+strings.Join(knownExperiments(), ", ")+"), a comma-separated list, or 'all'")
		scale      = flag.String("scale", "quick", "experiment scale: quick | paper")
		ops        = flag.Int("ops", 0, "override trace operation count")
		osds       = flag.Int("osds", 0, "override OSD count")
		seed       = flag.Int64("seed", 0, "override workload seed")
		clients    = flag.String("clients", "", "override client sweep, e.g. 4,16,64")
		rworkers   = flag.String("recovery-workers", "", "override the recovery experiment's worker sweep, e.g. 1,4,16")
		f8workers  = flag.String("fig8b-workers", "", "add a rebuild-worker axis to the fig8b HDD recovery sweep, e.g. 1,4,16")
		rebuildCap = flag.Float64("max-rebuild-mbps", 0, "rebuild-bandwidth cap (decimal MB/s) for the repair experiment's capped drain row; 0 derives it from the uncapped baseline")
		scen       = flag.String("scenario", "", "fault-mix preset for the scenario experiment ("+strings.Join(scenario.Presets(), " | ")+"); empty selects mixed")
		tenants    = flag.Int("tenants", 0, "tenant count for the scenario experiment; 0 selects the scenario default")
		faultSeed  = flag.Int64("fault-seed", 0, "fault-timeline seed for the scenario experiment; 0 falls back to -seed")
		soak       = flag.Duration("soak-duration", 0, "wall-clock soak budget for the scenario experiment (e.g. 30s); 0 runs exactly one pass")
		jsonOut    = flag.Bool("json", false, "additionally write each report as machine-readable BENCH_<id>.json")
		outDir     = flag.String("out", ".", "directory for -json output files")
		combined   = flag.String("combined", "", "additionally write every selected report into one combined JSON file (a bench snapshot for cmd/benchdiff)")
	)
	flag.Parse()

	var s bench.Scale
	switch *scale {
	case "quick":
		s = bench.Quick()
	case "paper":
		s = bench.Paper()
	default:
		fmt.Fprintf(os.Stderr, "tsuebench: unknown scale %q\n", *scale)
		os.Exit(2)
	}
	if *ops > 0 {
		s.Ops = *ops
	}
	if *osds > 0 {
		s.NumOSDs = *osds
	}
	if *seed != 0 {
		s.Seed = *seed
	}
	if *clients != "" {
		s.Clients = parseIntList("clients", *clients)
	}
	if *rworkers != "" {
		s.RecoveryWorkers = parseIntList("recovery-workers", *rworkers)
	}
	if *f8workers != "" {
		s.Fig8bWorkers = parseIntList("fig8b-workers", *f8workers)
	}
	if *rebuildCap > 0 {
		s.MaxRebuildMBps = *rebuildCap
	}
	s.Scenario = *scen
	if *tenants > 0 {
		s.Tenants = *tenants
	}
	s.FaultSeed = *faultSeed
	if *soak > 0 {
		s.SoakDuration = *soak
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	lookup := func(id string) (func(context.Context, bench.Scale) (*bench.Report, error), bool) {
		if fn, ok := bench.Experiments[id]; ok {
			return fn, true
		}
		fn, ok := bench.Extensions[id]
		return fn, ok
	}
	ids := bench.Order
	if *exp != "all" {
		ids = nil
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(id)
			if _, ok := lookup(id); !ok {
				fmt.Fprintf(os.Stderr, "tsuebench: unknown experiment %q (want %s, or all)\n", id, strings.Join(knownExperiments(), ", "))
				os.Exit(2)
			}
			ids = append(ids, id)
		}
	}
	var reports []*bench.Report
	for _, id := range ids {
		fn, _ := lookup(id)
		rep, err := fn(ctx, s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tsuebench: %s: %v\n", id, err)
			os.Exit(1)
		}
		rep.Fprint(os.Stdout)
		reports = append(reports, rep)
		if *jsonOut {
			if err := writeJSON(*outDir, rep); err != nil {
				fmt.Fprintf(os.Stderr, "tsuebench: %s: %v\n", id, err)
				os.Exit(1)
			}
		}
	}
	if *combined != "" {
		if err := writeCombined(*combined, reports); err != nil {
			fmt.Fprintf(os.Stderr, "tsuebench: %v\n", err)
			os.Exit(1)
		}
	}
}

// knownExperiments lists every accepted id — the paper's experiments in
// order, then the extensions sorted — built from the live tables so the
// usage text cannot drift from what the lookup accepts.
func knownExperiments() []string {
	ids := append([]string{}, bench.Order...)
	ext := make([]string, 0, len(bench.Extensions))
	for id := range bench.Extensions {
		ext = append(ext, id)
	}
	sort.Strings(ext)
	return append(ids, ext...)
}

// writeJSON writes one report as BENCH_<id>.json in dir.
func writeJSON(dir string, rep *bench.Report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_"+rep.ID+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "tsuebench: wrote %s\n", path)
	return nil
}

// writeCombined writes every selected report into one JSON file — the
// bench snapshot that make bench-json commits and cmd/benchdiff gates.
func writeCombined(path string, reports []*bench.Report) error {
	data, err := json.MarshalIndent(map[string]any{"reports": reports}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "tsuebench: wrote %s\n", path)
	return nil
}

// parseIntList parses a comma-separated list of positive ints or exits.
func parseIntList(flagName, v string) []int {
	var out []int
	for _, f := range strings.Split(v, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "tsuebench: bad -%s %q\n", flagName, v)
			os.Exit(2)
		}
		out = append(out, n)
	}
	return out
}
