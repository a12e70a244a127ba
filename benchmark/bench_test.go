package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWorkloadsQuick runs every workload at 1/50 of its op budget through
// the same code as a full run, correctness gate included. One of them
// runs traced, so both ways of building the client are covered.
func TestWorkloadsQuick(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			o := options{seed: 1, quick: true, setups: 1, traced: w.name == "ali-tsue-mem", dataRoot: dir}
			out, tr, err := run(context.Background(), w, o)
			if err != nil {
				t.Fatal(err)
			}
			if out.checkErr != nil {
				t.Fatalf("correctness gate: %v", out.checkErr)
			}
			for _, p := range out.phases() {
				if p.failed != 0 {
					t.Fatalf("%d of %d ops failed: %v", p.failed, p.ops, p.firstErr)
				}
			}
			vals := endToEnd(out)
			for _, d := range endToEndDefs {
				if vals[d.name] <= 0 {
					t.Errorf("%s = %v, want > 0", d.name, vals[d.name])
				}
			}
			if tr != nil {
				checkTraced(t, out, tr, dir)
			}
		})
	}
}

// checkTraced checks a traced pass of a tsue workload: every per-layer
// metric is produced, handlers find the calls that carried them, and the
// spans of an operation account for its duration.
func checkTraced(t *testing.T, out *outcome, tr *tracer, dir string) {
	probes, err := runProbes(dir)
	if err != nil {
		t.Fatal(err)
	}
	vals := perLayer(out, tr, endToEnd(out)["ops_per_s"], probes)
	for _, d := range perLayerDefs {
		if _, ok := vals[d.name]; !ok {
			t.Errorf("per-layer metric %s missing", d.name)
		}
	}
	if len(vals) != len(perLayerDefs) {
		t.Errorf("%d per-layer values for %d definitions", len(vals), len(perLayerDefs))
	}
	for _, name := range []string{"osd.update_handler_us", "osd.replica_rtt_us", "transport.update_overhead_us", "osd.stage2_busy_s", "logpool.data.merge_ratio"} {
		if vals[name] <= 0 {
			t.Errorf("%s = %v, want > 0 on a tsue workload", name, vals[name])
		}
	}
	if v := vals["trace.unmatched_handler_share"]; v > 0.02 {
		t.Errorf("%.3f of handler spans found no call span", v)
	}
	if v := vals["trace.self_sum_share"]; v < 0.95 || v > 1.05 {
		t.Errorf("self times sum to %.3f of the op spans, want within 5%%", v)
	}
	path := filepath.Join(dir, "spans.json")
	if err := tr.writeJSON(path); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(path); err != nil || !strings.Contains(string(b), `"name":"osd.peer_call"`) {
		t.Errorf("span dump lacks peer calls (err %v)", err)
	}
}

// TestBenchmarkFile keeps BENCHMARK.json and the program's own tables in
// step: same workloads, same metric names and units.
func TestBenchmarkFile(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, bf.Workloads[i].Name, w.name)
		}
	}
	if len(bf.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bf.EndToEnd), len(endToEndDefs))
	}
	for i, d := range endToEndDefs {
		if m := bf.EndToEnd[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("end-to-end metric %d: %s [%s] in BENCHMARK.json, %s [%s] in the program", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
	if len(bf.PerLayer) != len(perLayerDefs) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(bf.PerLayer), len(perLayerDefs))
	}
	for i, d := range perLayerDefs {
		if m := bf.PerLayer[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per-layer metric %d: %s [%s] in BENCHMARK.json, %s [%s] in the program", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
}

// TestCompare checks the three verdicts on hand-made result files.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, opsPerS ...float64) string {
		path := filepath.Join(dir, name)
		for _, v := range opsPerS {
			err := appendResult(path, &result{Workload: "ali-tsue-mem", Correct: true, Attempted: 1, Metrics: map[string]metricValue{
				"ops_per_s":     {v, "1/s"},
				"update_p50_us": {1e6 / v, "us"},
			}})
			if err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("a", 3000, 3010, 3020, 3030)
	var sb strings.Builder
	verdicts := func(other string) string {
		sb.Reset()
		if err := compareFiles(&sb, filepath.Join("..", "BENCHMARK.json"), base, other); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if out := verdicts(write("same", 2990, 3000, 3040, 3050)); strings.Contains(out, "worse") || strings.Contains(out, "unresolved") {
		t.Errorf("equal runs not reported unchanged:\n%s", out)
	}
	if out := verdicts(write("slow", 2000, 2010, 2020, 2030)); strings.Count(out, "worse") != 2 {
		t.Errorf("a third fewer ops/s not reported worse on both metrics:\n%s", out)
	}
	if out := verdicts(write("noisy", 2000, 2600, 3400, 4000)); strings.Count(out, "unresolved") != 2 {
		t.Errorf("runs spread wider than the bound not reported unresolved:\n%s", out)
	}
}
