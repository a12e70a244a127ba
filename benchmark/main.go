// Command benchmark measures the assembled ECFS stack on the wall clock:
// the nodes cmd/ecfsd runs (MDS and OSDs behind transport.ServeTCP, peers
// resolving through the MDS) stood up on loopback in this process and
// driven through ecfs.Dial by two closed-loop clients. See README.md.
//
//	go run ./benchmark --workload ali-tsue-mem --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics — the end-to-end ones with --trace 0,
// the per-layer ones with --trace 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload: what the last line of output says,
// plus what identifies the run in a -out file.
type result struct {
	Workload  string                 `json:"workload,omitempty"`
	Seed      int64                  `json:"seed,omitempty"`
	Traced    bool                   `json:"traced,omitempty"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name     = flag.String("workload", "all", "workload to run: all, "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", 20, "how long the timed phases of one pass last")
		traced   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off. 1: per-layer metrics from a traced pass (after an untraced reference pass)")
		quick    = flag.Bool("quick", false, "op budgets / 50 in place of the time limit, one set-up: a smoke run")
		dataRoot = flag.String("data-root", filepath.Join("benchmark", "out", "data"), "where durable workloads keep their data directories (removed afterwards)")
		outFile  = flag.String("out", "", "append each run's result to this file, one JSON object per line (the input of -compare)")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments, using the bounds in BENCHMARK.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		if err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}

	todo := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", ")))
		}
		todo = []workload{w}
	}
	if err := os.MkdirAll(*dataRoot, 0o755); err != nil {
		fatal(err)
	}
	o := options{seed: *seed, seconds: *seconds, quick: *quick, dataRoot: *dataRoot, setups: 3}
	if *quick {
		o.seconds, o.setups = 0, 1
	}
	ok := true
	for _, w := range todo {
		o.traceOut = filepath.Join("benchmark", "out", w.name+".trace.json")
		res, err := measure(context.Background(), w, o, *traced != 0)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		ok = ok && res.Correct
		if *outFile != "" {
			if err := appendResult(*outFile, res); err != nil {
				fatal(err)
			}
		}
		line, err := json.Marshal(result{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
	}
	if !ok {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	os.Exit(2)
}

// measure runs one workload and assembles its result: one untraced pass
// for the end-to-end metrics, or, traced, an untraced reference pass and
// then the traced pass the per-layer metrics come from.
func measure(ctx context.Context, w workload, o options, traced bool) (*result, error) {
	if traced {
		o.setups = 1 // setup_s is an end-to-end metric
	}
	out, _, err := run(ctx, w, o)
	if err != nil {
		return nil, err
	}
	defs, vals := endToEndDefs, endToEnd(out)
	if traced {
		refOps := vals["ops_per_s"]
		// Give the traced pass the reference pass's starting point: a heap
		// the operating system has yet to back with pages.
		debug.FreeOSMemory()
		o.traced = true
		var tr *tracer
		if out, tr, err = run(ctx, w, o); err != nil {
			return nil, err
		}
		probes, err := runProbes(o.dataRoot)
		if err != nil {
			return nil, err
		}
		defs, vals = perLayerDefs, perLayer(out, tr, refOps, probes)
		if err := tr.writeJSON(o.traceOut); err != nil {
			return nil, err
		}
	}
	res := &result{Workload: w.name, Seed: o.seed, Traced: traced, Correct: out.checkErr == nil, Metrics: make(map[string]metricValue, len(defs))}
	for _, p := range out.phases() {
		res.Attempted += p.ops
		res.Failed += p.failed
		if p.firstErr != nil {
			fmt.Fprintf(os.Stderr, "%s: first failed op: %v\n", w.name, p.firstErr)
		}
	}
	if out.checkErr != nil {
		fmt.Fprintf(os.Stderr, "%s: correctness gate: %v\n", w.name, out.checkErr)
	}
	res.Correct = res.Correct && res.Failed == 0
	fmt.Fprintf(os.Stderr, "%s seed %d: %d ops, %d failed, correct=%v\n", w.name, o.seed, res.Attempted, res.Failed, res.Correct)
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{vals[d.name], d.unit}
		fmt.Fprintf(os.Stderr, "  %-40s %14.4f %s\n", d.name, vals[d.name], d.unit)
	}
	if w.durable {
		fmt.Fprintln(os.Stderr, "  (crash-restart has process-kill semantics: the operating system's cache is kept, so reopen times are the program's replay cost, not a device's)")
	}
	return res, nil
}

func appendResult(path string, res *result) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
