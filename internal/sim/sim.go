// Package sim provides the virtual-time accounting primitives the
// benchmark harness uses in place of a physical testbed.
//
// Correctness-bearing state in ECFS (block contents, parity, logs) is real
// and mutated by real goroutines; only *time* is modelled. Every shared
// resource — an SSD, an HDD, a NIC — is a Resource that accumulates busy
// nanoseconds as operations are charged to it. A synchronous request path
// sums the charges it incurs into a latency sample. An experiment then
// derives aggregate throughput from the bottleneck resource
// (operational-law analysis), which is deterministic and preserves the
// relative shapes the paper reports without sleeping.
package sim

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Class tags the traffic a priced operation belongs to, so per-resource
// busy time can be split between the foreground workload and the
// maintenance machinery competing with it. The zero value, ClassOther,
// covers control traffic and anything untagged (device charges, which
// the pricing layer does not classify today).
//
// The repair scheduler uses the foreground classes as its virtual
// clock: rebuild-bandwidth tokens accrue as foreground busy time
// accumulates, which is what "cap rebuild traffic against foreground
// load" means in a virtual-time harness.
type Class uint8

// Traffic classes. Scrub is reserved for background integrity reads (no
// priced scrub traffic exists yet; Cluster.Scrub inspects stores
// in-process).
const (
	ClassOther Class = iota
	ClassForegroundRead
	ClassForegroundWrite
	ClassRebuild
	ClassDrain
	ClassScrub
	// NumClasses bounds the class space for per-class accounting arrays.
	NumClasses
)

var classNames = [NumClasses]string{
	"other", "fg-read", "fg-write", "rebuild", "drain", "scrub",
}

// String returns the class's short name.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return "invalid"
}

// ForegroundClasses are the classes that make up the foreground
// workload — the traffic a repair-bandwidth cap protects.
var ForegroundClasses = []Class{ClassForegroundRead, ClassForegroundWrite}

// Resource is a serially-used resource (one device, one NIC). Charging a
// duration models the resource being busy for that long. Resources are
// safe for concurrent use.
type Resource struct {
	name    string
	busy    atomic.Int64 // nanoseconds, all classes
	ops     atomic.Int64
	byClass [NumClasses]atomic.Int64 // nanoseconds per traffic class
}

// NewResource creates a named resource with zero accumulated busy time.
func NewResource(name string) *Resource {
	return &Resource{name: name}
}

// Name returns the resource's name.
func (r *Resource) Name() string { return r.name }

// Charge accounts d of busy time under the given traffic class and
// returns d unchanged, so call sites can simultaneously account the
// resource and extend a latency path. The total Busy always includes
// every class.
func (r *Resource) Charge(c Class, d time.Duration) time.Duration {
	if d < 0 {
		panic("sim: negative charge")
	}
	if c >= NumClasses {
		c = ClassOther
	}
	r.busy.Add(int64(d))
	r.byClass[c].Add(int64(d))
	r.ops.Add(1)
	return d
}

// Busy returns the accumulated busy time across all classes.
func (r *Resource) Busy() time.Duration { return time.Duration(r.busy.Load()) }

// BusyClass returns the busy time accumulated under one traffic class.
func (r *Resource) BusyClass(c Class) time.Duration {
	if c >= NumClasses {
		return 0
	}
	return time.Duration(r.byClass[c].Load())
}

// Ops returns the number of operations charged.
func (r *Resource) Ops() int64 { return r.ops.Load() }

// Reset zeroes the accumulated busy time (all classes) and op count.
func (r *Resource) Reset() {
	r.busy.Store(0)
	r.ops.Store(0)
	for i := range r.byClass {
		r.byClass[i].Store(0)
	}
}

// SnapshotBusy records every resource's current busy time, positionally
// aligned with resources. Together with MaxBusyDelta it brackets a
// measurement window: snapshot before, delta after.
func SnapshotBusy(resources []*Resource) []time.Duration {
	out := make([]time.Duration, len(resources))
	for i, r := range resources {
		out[i] = r.Busy()
	}
	return out
}

// MaxBusyDelta returns the largest per-resource busy increase since the
// snapshot — the bottleneck duration of the bracketed window. Resources
// provisioned after the snapshot (e.g. a NIC for a client that appeared
// mid-window) count in full.
func MaxBusyDelta(resources []*Resource, before []time.Duration) time.Duration {
	var m time.Duration
	for i, r := range resources {
		var base time.Duration
		if i < len(before) {
			base = before[i]
		}
		if d := r.Busy() - base; d > m {
			m = d
		}
	}
	return m
}

// SnapshotBusyClasses records every resource's busy time summed over
// the given classes, positionally aligned with resources — the
// class-filtered sibling of SnapshotBusy. With no classes it snapshots
// nothing but zeros.
func SnapshotBusyClasses(resources []*Resource, classes ...Class) []time.Duration {
	out := make([]time.Duration, len(resources))
	for i, r := range resources {
		for _, c := range classes {
			out[i] += r.BusyClass(c)
		}
	}
	return out
}

// MaxBusyDeltaClasses returns the largest per-resource increase of the
// summed busy time of the given classes since the snapshot — how much
// the busiest resource worked *for those classes* inside the bracketed
// window. The repair scheduler uses it with ForegroundClasses as its
// token-accrual clock.
func MaxBusyDeltaClasses(resources []*Resource, before []time.Duration, classes ...Class) time.Duration {
	var m time.Duration
	for i, r := range resources {
		var base time.Duration
		if i < len(before) {
			base = before[i]
		}
		var busy time.Duration
		for _, c := range classes {
			busy += r.BusyClass(c)
		}
		if d := busy - base; d > m {
			m = d
		}
	}
	return m
}

// maxLatencySamples bounds the per-recorder sample retention used for
// percentile queries (simple reservoir: first N samples kept).
const maxLatencySamples = 1 << 17

// LatencyRecorder aggregates synchronous path latency samples and
// retains a bounded sample set for percentile queries.
type LatencyRecorder struct {
	mu      sync.Mutex
	total   time.Duration
	max     time.Duration
	n       int64
	samples []time.Duration
}

// Observe records one latency sample.
func (l *LatencyRecorder) Observe(d time.Duration) {
	l.mu.Lock()
	l.total += d
	if d > l.max {
		l.max = d
	}
	l.n++
	if len(l.samples) < maxLatencySamples {
		l.samples = append(l.samples, d)
	}
	l.mu.Unlock()
}

// Percentile returns the p-th percentile (0 < p <= 100) of the retained
// samples, or 0 with no samples.
func (l *LatencyRecorder) Percentile(p float64) time.Duration {
	return l.Percentiles(p)[0]
}

// Percentiles returns the requested percentiles (each 0 < p <= 100,
// e.g. 50, 99, 99.9) of the retained samples, positionally aligned with
// ps, from a single sort of the sample set — the tail-latency query the
// benchmark tables are built from. With no samples every entry is 0.
func (l *LatencyRecorder) Percentiles(ps ...float64) []time.Duration {
	out := make([]time.Duration, len(ps))
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.samples) == 0 {
		return out
	}
	sorted := append([]time.Duration(nil), l.samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i, p := range ps {
		idx := int(p/100*float64(len(sorted))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		}
		out[i] = sorted[idx]
	}
	return out
}

// Count returns the number of samples.
func (l *LatencyRecorder) Count() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Mean returns the mean latency, or 0 with no samples.
func (l *LatencyRecorder) Mean() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n == 0 {
		return 0
	}
	return l.total / time.Duration(l.n)
}

// Max returns the largest observed latency.
func (l *LatencyRecorder) Max() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.max
}

// Total returns the summed latency across samples.
func (l *LatencyRecorder) Total() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Reset clears all samples.
func (l *LatencyRecorder) Reset() {
	l.mu.Lock()
	l.total, l.max, l.n = 0, 0, 0
	l.samples = l.samples[:0]
	l.mu.Unlock()
}

// Series collects (virtual time, value) points for time-series figures
// such as Fig. 6a. Points may be added out of order; Points() sorts.
type Series struct {
	mu  sync.Mutex
	pts []Point
}

// Point is one sample of a time series.
type Point struct {
	T time.Duration // virtual time since experiment start
	V float64
}

// Add appends a sample.
func (s *Series) Add(t time.Duration, v float64) {
	s.mu.Lock()
	s.pts = append(s.pts, Point{T: t, V: v})
	s.mu.Unlock()
}

// Points returns the samples sorted by time.
func (s *Series) Points() []Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := append([]Point(nil), s.pts...)
	sort.Slice(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}

// Throughput derives aggregate operations/second for a replay using the
// bottleneck model: the experiment cannot finish faster than its busiest
// resource, nor faster than the client population can issue requests
// (clients issue synchronously, so C clients sustain C/avgLatency ops/s).
func Throughput(ops int64, clients int, avgLatency time.Duration, resources []*Resource) float64 {
	if ops == 0 {
		return 0
	}
	clientTime := time.Duration(ops) * avgLatency / time.Duration(max(clients, 1))
	bottleneck := clientTime
	for _, r := range resources {
		if b := r.Busy(); b > bottleneck {
			bottleneck = b
		}
	}
	if bottleneck <= 0 {
		return 0
	}
	return float64(ops) / bottleneck.Seconds()
}
