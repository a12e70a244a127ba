package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark itself reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// readResults loads a -out file: the untraced runs' values, by workload
// and metric.
func readResults(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Traced {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v.Value)
		}
	}
	return out, sc.Err()
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// spread is how far a side's runs lie apart, as a share of their median:
// the distance between the quartiles given at least four runs, else the
// whole range.
func spread(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	lo, hi := s[0], s[len(s)-1]
	if n := len(s); n >= 4 {
		// The quartiles statistics.quantiles(v, n=4) gives.
		q := func(p float64) float64 {
			at := p*float64(n+1) - 1
			i := min(max(int(at), 0), n-2)
			return s[i] + (s[i+1]-s[i])*min(max(at-float64(i), 0), 1)
		}
		lo, hi = q(0.25), q(0.75)
	}
	return ratio(hi-lo, median(s))
}

// compareFiles prints, per workload row, each end-to-end metric of b
// against a: worse when b's median is worse than a's by more than the
// metric's bound, unresolved when either side's runs spread wider than
// the bound (so the medians cannot settle it), unchanged otherwise.
func compareFiles(w io.Writer, benchPath, pathA, pathB string) error {
	bf, err := readBenchmarkFile(benchPath)
	if err != nil {
		return err
	}
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-18s %-20s %12s %12s %8s %7s %7s %6s  %s\n", "workload", "metric", "a median", "b median", "change", "a iqr", "b iqr", "bound", "verdict")
	for _, wl := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			change := ratio(mb-ma, ma)
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			sa, sb := spread(va), spread(vb)
			verdict := "unchanged"
			switch {
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "worse"
			}
			fmt.Fprintf(w, "%-18s %-20s %12.4g %12.4g %+7.1f%% %6.1f%% %6.1f%% %5.0f%%  %s (n=%d,%d)\n",
				wl.Name, m.Name, ma, mb, 100*change, 100*sa, 100*sb, 100*m.Bound, verdict, len(va), len(vb))
		}
	}
	return nil
}
