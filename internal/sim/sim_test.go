package sim

import (
	"sync"
	"testing"
	"time"
)

func TestResourceCharge(t *testing.T) {
	r := NewResource("ssd0")
	if r.Name() != "ssd0" {
		t.Fatal("name lost")
	}
	if got := r.Charge(ClassOther, 5*time.Microsecond); got != 5*time.Microsecond {
		t.Fatal("Charge must return its argument")
	}
	r.Charge(ClassOther, 10*time.Microsecond)
	if r.Busy() != 15*time.Microsecond {
		t.Fatalf("busy = %v, want 15us", r.Busy())
	}
	if r.Ops() != 2 {
		t.Fatalf("ops = %d, want 2", r.Ops())
	}
	r.Reset()
	if r.Busy() != 0 || r.Ops() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestResourceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative charge must panic")
		}
	}()
	NewResource("x").Charge(ClassOther, -1)
}

func TestResourceConcurrent(t *testing.T) {
	r := NewResource("nic")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Charge(ClassOther, time.Nanosecond)
			}
		}()
	}
	wg.Wait()
	if r.Busy() != 8000*time.Nanosecond {
		t.Fatalf("busy = %v, want 8000ns", r.Busy())
	}
}

func TestLatencyRecorder(t *testing.T) {
	var l LatencyRecorder
	if l.Mean() != 0 || l.Max() != 0 || l.Count() != 0 {
		t.Fatal("zero recorder must report zeros")
	}
	l.Observe(10 * time.Microsecond)
	l.Observe(30 * time.Microsecond)
	if l.Mean() != 20*time.Microsecond {
		t.Fatalf("mean = %v", l.Mean())
	}
	if l.Max() != 30*time.Microsecond {
		t.Fatalf("max = %v", l.Max())
	}
	if l.Total() != 40*time.Microsecond {
		t.Fatalf("total = %v", l.Total())
	}
	l.Reset()
	if l.Count() != 0 {
		t.Fatal("reset failed")
	}
}

func TestSeriesSorted(t *testing.T) {
	var s Series
	s.Add(3*time.Second, 30)
	s.Add(1*time.Second, 10)
	s.Add(2*time.Second, 20)
	pts := s.Points()
	if len(pts) != 3 || pts[0].V != 10 || pts[1].V != 20 || pts[2].V != 30 {
		t.Fatalf("points not sorted: %+v", pts)
	}
}

func TestThroughputClientBound(t *testing.T) {
	// 1000 ops, 1 client, 1ms each: client-bound at 1000 ops/s.
	got := Throughput(1000, 1, time.Millisecond, nil)
	if got < 999 || got > 1001 {
		t.Fatalf("client-bound throughput = %v, want ~1000", got)
	}
	// 64 clients: 64x faster when no resource is hot.
	got = Throughput(1000, 64, time.Millisecond, nil)
	if got < 63900 || got > 64100 {
		t.Fatalf("64-client throughput = %v, want ~64000", got)
	}
}

func TestThroughputResourceBound(t *testing.T) {
	r := NewResource("ssd")
	r.Charge(ClassOther, 10*time.Second) // resource is the bottleneck
	got := Throughput(1000, 64, time.Microsecond, []*Resource{r})
	if got < 99 || got > 101 {
		t.Fatalf("resource-bound throughput = %v, want ~100", got)
	}
}

func TestThroughputZeroOps(t *testing.T) {
	if Throughput(0, 4, time.Millisecond, nil) != 0 {
		t.Fatal("zero ops must give zero throughput")
	}
}

func TestLatencyPercentiles(t *testing.T) {
	var l LatencyRecorder
	if l.Percentile(99) != 0 {
		t.Fatal("empty recorder percentile must be 0")
	}
	for i := 1; i <= 100; i++ {
		l.Observe(time.Duration(i) * time.Microsecond)
	}
	if p := l.Percentile(50); p != 50*time.Microsecond {
		t.Fatalf("P50 = %v", p)
	}
	if p := l.Percentile(99); p != 99*time.Microsecond {
		t.Fatalf("P99 = %v", p)
	}
	if p := l.Percentile(100); p != 100*time.Microsecond {
		t.Fatalf("P100 = %v", p)
	}
	l.Reset()
	if l.Percentile(50) != 0 {
		t.Fatal("reset must clear samples")
	}
}

func TestLatencyPercentilesBatch(t *testing.T) {
	var l LatencyRecorder
	if got := l.Percentiles(50, 99, 99.9); len(got) != 3 || got[0] != 0 || got[1] != 0 || got[2] != 0 {
		t.Fatalf("empty recorder batch = %v, want three zeros", got)
	}
	for i := 1; i <= 1000; i++ {
		l.Observe(time.Duration(i) * time.Microsecond)
	}
	got := l.Percentiles(50, 99, 99.9)
	want := []time.Duration{500 * time.Microsecond, 990 * time.Microsecond, 999 * time.Microsecond}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("batch percentiles = %v, want %v", got, want)
		}
	}
	// Order of the query list must not matter beyond positional alignment.
	rev := l.Percentiles(99.9, 50)
	if rev[0] != want[2] || rev[1] != want[0] {
		t.Fatalf("reversed query = %v", rev)
	}
	// Single-quantile path must agree with the batch path.
	if l.Percentile(99) != got[1] {
		t.Fatalf("Percentile(99) = %v, batch gave %v", l.Percentile(99), got[1])
	}
}

func TestSnapshotAndMaxBusyDelta(t *testing.T) {
	a, b := NewResource("a"), NewResource("b")
	a.Charge(ClassOther, 5*time.Millisecond)
	rs := []*Resource{a, b}
	before := SnapshotBusy(rs)
	if len(before) != 2 || before[0] != 5*time.Millisecond || before[1] != 0 {
		t.Fatalf("snapshot = %v", before)
	}
	a.Charge(ClassOther, time.Millisecond)
	b.Charge(ClassOther, 3*time.Millisecond)
	if d := MaxBusyDelta(rs, before); d != 3*time.Millisecond {
		t.Fatalf("delta = %v", d)
	}
	// A resource provisioned after the snapshot counts in full.
	c := NewResource("c")
	c.Charge(ClassOther, 10*time.Millisecond)
	if d := MaxBusyDelta(append(rs, c), before); d != 10*time.Millisecond {
		t.Fatalf("delta with new resource = %v", d)
	}
	// A nil snapshot degrades to the plain bottleneck busy time.
	if d := MaxBusyDelta(rs, nil); d != 6*time.Millisecond {
		t.Fatalf("delta from nil = %v", d)
	}
}

func TestClassAccounting(t *testing.T) {
	r := NewResource("nic")
	r.Charge(ClassForegroundRead, 2*time.Millisecond)
	r.Charge(ClassRebuild, 3*time.Millisecond)
	r.Charge(ClassOther, time.Millisecond)
	if got := r.Busy(); got != 6*time.Millisecond {
		t.Fatalf("total busy = %v", got)
	}
	if got := r.BusyClass(ClassForegroundRead); got != 2*time.Millisecond {
		t.Fatalf("fg-read busy = %v", got)
	}
	if got := r.BusyClass(ClassRebuild); got != 3*time.Millisecond {
		t.Fatalf("rebuild busy = %v", got)
	}
	if got := r.BusyClass(ClassOther); got != time.Millisecond {
		t.Fatalf("other busy = %v", got)
	}
	// Per-class busy always sums to the total.
	var sum time.Duration
	for c := Class(0); c < NumClasses; c++ {
		sum += r.BusyClass(c)
	}
	if sum != r.Busy() {
		t.Fatalf("class sum %v != total %v", sum, r.Busy())
	}
	r.Reset()
	if r.Busy() != 0 || r.BusyClass(ClassRebuild) != 0 {
		t.Fatal("Reset left class busy time")
	}
}

func TestClassSnapshotDelta(t *testing.T) {
	a, b := NewResource("a"), NewResource("b")
	rs := []*Resource{a, b}
	a.Charge(ClassForegroundWrite, 4*time.Millisecond)
	a.Charge(ClassDrain, 100*time.Millisecond) // must not count below
	before := SnapshotBusyClasses(rs, ForegroundClasses...)
	if before[0] != 4*time.Millisecond || before[1] != 0 {
		t.Fatalf("snapshot = %v", before)
	}
	b.Charge(ClassForegroundRead, 7*time.Millisecond)
	a.Charge(ClassRebuild, time.Second) // rebuild does not advance the fg clock
	if d := MaxBusyDeltaClasses(rs, before, ForegroundClasses...); d != 7*time.Millisecond {
		t.Fatalf("fg delta = %v", d)
	}
}

func TestClassString(t *testing.T) {
	if ClassRebuild.String() != "rebuild" || ClassOther.String() != "other" {
		t.Fatal("class names wrong")
	}
}
