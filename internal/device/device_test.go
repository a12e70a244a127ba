package device

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func TestRandomCostsMoreThanSequential(t *testing.T) {
	for _, p := range []Profile{ChameleonSSD(), Datacenter2TBHDD()} {
		d := New("t", p)
		seq := d.Read(sim.ClassOther, 4096, false)
		rnd := d.Read(sim.ClassOther, 4096, true)
		if rnd <= seq {
			t.Errorf("%v: random read (%v) should cost more than sequential (%v)", p.Kind, rnd, seq)
		}
		seqW := d.Write(sim.ClassOther, 4096, false, false)
		rndW := d.Write(sim.ClassOther, 4096, true, true)
		if rndW <= seqW {
			t.Errorf("%v: random write (%v) should cost more than sequential (%v)", p.Kind, rndW, seqW)
		}
	}
}

func TestHDDSeekDominates(t *testing.T) {
	d := New("hdd", Datacenter2TBHDD())
	lat := d.Read(sim.ClassOther, 4096, true)
	if lat < 8*time.Millisecond {
		t.Fatalf("HDD random read %v should include ~8ms seek", lat)
	}
}

func TestCounters(t *testing.T) {
	d := New("ssd", ChameleonSSD())
	d.Read(sim.ClassOther, 1000, true)
	d.Read(sim.ClassOther, 2000, false)
	d.Write(sim.ClassOther, 3000, false, false)
	d.Write(sim.ClassOther, 500, true, true)
	s := d.Stats()
	if s.Reads != 2 || s.ReadBytes != 3000 {
		t.Fatalf("reads = %d/%d bytes", s.Reads, s.ReadBytes)
	}
	if s.Writes != 2 || s.WriteBytes != 3500 {
		t.Fatalf("writes = %d/%d bytes", s.Writes, s.WriteBytes)
	}
	if s.Overwrites != 1 || s.OverwriteBytes != 500 {
		t.Fatalf("overwrites = %d/%d bytes", s.Overwrites, s.OverwriteBytes)
	}
	if s.RandomOps != 2 || s.SeqOps != 2 {
		t.Fatalf("random/seq = %d/%d", s.RandomOps, s.SeqOps)
	}
}

func TestWearModel(t *testing.T) {
	d := New("ssd", ChameleonSSD())
	// A 512-byte in-place overwrite programs a whole 4 KiB page.
	d.Write(sim.ClassOther, 512, true, true)
	s := d.Stats()
	if s.ProgrammedBytes != 4096 {
		t.Fatalf("programmed = %d, want 4096 (whole page)", s.ProgrammedBytes)
	}
	// A sequential log append programs only its own bytes.
	d.Reset()
	d.Write(sim.ClassOther, 512, false, false)
	s = d.Stats()
	if s.ProgrammedBytes != 512 {
		t.Fatalf("programmed = %d, want 512", s.ProgrammedBytes)
	}
}

func TestEraseDerivation(t *testing.T) {
	d := New("ssd", ChameleonSSD())
	if d.Stats().EraseOps != 0 {
		t.Fatal("fresh device must have zero erases")
	}
	// 256 KiB erase blocks: 1 MiB programmed -> 4 erases.
	d.Write(sim.ClassOther, 1<<20, false, false)
	if got := d.Stats().EraseOps; got != 4 {
		t.Fatalf("erases = %d, want 4", got)
	}
	// HDD has no wear model.
	h := New("hdd", Datacenter2TBHDD())
	h.Write(sim.ClassOther, 1<<20, true, true)
	if h.Stats().EraseOps != 0 {
		t.Fatal("HDD must not accumulate erases")
	}
}

func TestOverwriteWearAmplification(t *testing.T) {
	seqDev := New("a", ChameleonSSD())
	rndDev := New("b", ChameleonSSD())
	// Same volume: 1024 x 512 B. Sequential appends vs random overwrites.
	for i := 0; i < 1024; i++ {
		seqDev.Write(sim.ClassOther, 512, false, false)
		rndDev.Write(sim.ClassOther, 512, true, true)
	}
	se, re := seqDev.Stats().EraseOps, rndDev.Stats().EraseOps
	if re < 7*se {
		t.Fatalf("random overwrites should erase ~8x more (page amplification): seq=%d rand=%d", se, re)
	}
}

func TestBusyTimeAccounted(t *testing.T) {
	d := New("ssd", ChameleonSSD())
	lat := d.Write(sim.ClassOther, 64<<10, false, false)
	want := lat / time.Duration(ChameleonSSD().Parallelism)
	if d.Resource().Busy() != want {
		t.Fatalf("resource busy %v != lat/parallelism %v", d.Resource().Busy(), want)
	}
	h := New("hdd", Datacenter2TBHDD())
	hlat := h.Read(sim.ClassOther, 4096, true)
	if h.Resource().Busy() != hlat {
		t.Fatalf("HDD busy %v != full latency %v", h.Resource().Busy(), hlat)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Reads: 1, WriteBytes: 10, EraseOps: 2}
	b := Stats{Reads: 2, WriteBytes: 5, EraseOps: 3}
	c := a.Add(b)
	if c.Reads != 3 || c.WriteBytes != 15 || c.EraseOps != 5 {
		t.Fatalf("Add wrong: %+v", c)
	}
}

func TestReset(t *testing.T) {
	d := New("ssd", ChameleonSSD())
	d.Write(sim.ClassOther, 4096, true, true)
	d.Reset()
	s := d.Stats()
	if s.Writes != 0 || s.ProgrammedBytes != 0 || d.Resource().Busy() != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestNegativeSizePanics(t *testing.T) {
	d := New("ssd", ChameleonSSD())
	for name, fn := range map[string]func(){
		"read":  func() { d.Read(sim.ClassOther, -1, true) },
		"write": func() { d.Write(sim.ClassOther, -1, true, false) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with negative size must panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestKindString(t *testing.T) {
	if SSD.String() != "ssd" || HDD.String() != "hdd" {
		t.Fatal("Kind.String wrong")
	}
}
