package netsim

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func TestTransferCost(t *testing.T) {
	nw := New(Ethernet25G())
	a, b := nw.AddNIC("a"), nw.AddNIC("b")
	// 3.125 GB/s: 3.125 MB transfers in 1 ms + 25us base.
	cost := nw.Transfer(sim.ClassOther, a, b, 3_125_000)
	want := time.Millisecond + 25*time.Microsecond
	if diff := cost - want; diff < -time.Microsecond || diff > time.Microsecond {
		t.Fatalf("cost = %v, want ~%v", cost, want)
	}
}

func TestTrafficAccounting(t *testing.T) {
	nw := New(Ethernet25G())
	a, b := nw.AddNIC("a"), nw.AddNIC("b")
	nw.Transfer(sim.ClassOther, a, b, 1000)
	nw.Transfer(sim.ClassOther, b, a, 500)
	if nw.TotalTraffic() != 1500 {
		t.Fatalf("traffic = %d, want 1500", nw.TotalTraffic())
	}
	if a.SentBytes() != 1000 || a.ReceivedBytes() != 500 {
		t.Fatalf("a sent/rcvd = %d/%d", a.SentBytes(), a.ReceivedBytes())
	}
	if b.SentBytes() != 500 || b.ReceivedBytes() != 1000 {
		t.Fatalf("b sent/rcvd = %d/%d", b.SentBytes(), b.ReceivedBytes())
	}
}

func TestLoopbackFree(t *testing.T) {
	nw := New(Ethernet25G())
	a := nw.AddNIC("a")
	if cost := nw.Transfer(sim.ClassOther, a, a, 1<<20); cost != 0 {
		t.Fatalf("loopback cost = %v, want 0", cost)
	}
	if nw.TotalTraffic() != 0 {
		t.Fatal("loopback must not count as traffic")
	}
}

func TestBothNICsBusy(t *testing.T) {
	nw := New(Ethernet25G())
	a, b := nw.AddNIC("a"), nw.AddNIC("b")
	nw.Transfer(sim.ClassOther, a, b, 1<<20)
	if a.Resource().Busy() == 0 || a.Resource().Busy() != b.Resource().Busy() {
		t.Fatal("transfer must occupy both endpoints equally")
	}
	// Occupancy excludes propagation: it must be below the returned
	// latency (which includes the base latency).
	nw2 := New(Ethernet25G())
	x, y := nw2.AddNIC("x"), nw2.AddNIC("y")
	lat := nw2.Transfer(sim.ClassOther, x, y, 1<<20)
	if x.Resource().Busy() >= lat {
		t.Fatalf("occupancy %v should be below latency %v", x.Resource().Busy(), lat)
	}
}

func TestInfinibandFaster(t *testing.T) {
	e := New(Ethernet25G())
	i := New(Infiniband40G())
	ea, eb := e.AddNIC("a"), e.AddNIC("b")
	ia, ib := i.AddNIC("a"), i.AddNIC("b")
	if i.Transfer(sim.ClassOther, ia, ib, 1<<20) >= e.Transfer(sim.ClassOther, ea, eb, 1<<20) {
		t.Fatal("40G InfiniBand should beat 25G Ethernet")
	}
}

func TestReset(t *testing.T) {
	nw := New(Ethernet25G())
	a, b := nw.AddNIC("a"), nw.AddNIC("b")
	nw.Transfer(sim.ClassOther, a, b, 1000)
	nw.Reset()
	if nw.TotalTraffic() != 0 || a.SentBytes() != 0 || b.Resource().Busy() != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestResources(t *testing.T) {
	nw := New(Ethernet25G())
	nw.AddNIC("a")
	nw.AddNIC("b")
	if len(nw.Resources()) != 2 || len(nw.NICs()) != 2 {
		t.Fatal("resource list wrong")
	}
}

func TestNegativeSizePanics(t *testing.T) {
	nw := New(Ethernet25G())
	a, b := nw.AddNIC("a"), nw.AddNIC("b")
	defer func() {
		if recover() == nil {
			t.Fatal("negative size must panic")
		}
	}()
	nw.Transfer(sim.ClassOther, a, b, -5)
}

func TestTransferClassSplitsAccounting(t *testing.T) {
	nw := New(Ethernet25G())
	a, b := nw.AddNIC("a"), nw.AddNIC("b")
	nw.Transfer(sim.ClassRebuild, a, b, 1000)
	nw.Transfer(sim.ClassForegroundRead, a, b, 500)
	nw.Transfer(sim.ClassOther, a, b, 250)
	if got := nw.TotalTraffic(); got != 1750 {
		t.Fatalf("total traffic = %d", got)
	}
	if got := nw.TrafficByClass(sim.ClassRebuild); got != 1000 {
		t.Fatalf("rebuild traffic = %d", got)
	}
	if got := nw.TrafficByClass(sim.ClassForegroundRead); got != 500 {
		t.Fatalf("fg-read traffic = %d", got)
	}
	if got := nw.TrafficByClass(sim.ClassOther); got != 250 {
		t.Fatalf("other traffic = %d", got)
	}
	if got := a.SentBytesClass(sim.ClassRebuild); got != 1000 {
		t.Fatalf("NIC rebuild bytes = %d", got)
	}
	// Busy splits per class on both endpoints; classes sum to the total.
	if a.Resource().BusyClass(sim.ClassRebuild) == 0 || b.Resource().BusyClass(sim.ClassRebuild) == 0 {
		t.Fatal("rebuild busy not charged to both NICs")
	}
	var sum int64
	for c := sim.Class(0); c < sim.NumClasses; c++ {
		sum += nw.TrafficByClass(c)
	}
	if sum != nw.TotalTraffic() {
		t.Fatalf("class traffic sum %d != total %d", sum, nw.TotalTraffic())
	}
	nw.Reset()
	if nw.TrafficByClass(sim.ClassRebuild) != 0 || a.SentBytesClass(sim.ClassRebuild) != 0 {
		t.Fatal("Reset left per-class counters")
	}
}
