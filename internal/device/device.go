// Package device models the storage devices of the ECFS testbed: the cost
// asymmetry between sequential and random access, read/write/overwrite
// workload counters, and an SSD flash-translation-layer wear model.
//
// A Device does not store data (block contents live in the in-memory
// block store); it prices operations and accounts them against a
// sim.Resource so the benchmark harness can find the cluster bottleneck.
// The pricing captures the two properties the paper's results hinge on:
//
//  1. Small random reads/writes on SSDs cost several times a sequential
//     access of the same size, and on HDDs tens of milliseconds of seek.
//  2. Random sub-page overwrites force the FTL to program whole pages and
//     later erase whole blocks, wearing the flash; sequential appends fill
//     pages exactly and erase the minimum possible.
package device

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// Kind distinguishes device classes.
type Kind int

const (
	// SSD models a NAND-flash solid state drive.
	SSD Kind = iota
	// HDD models a spinning disk.
	HDD
)

func (k Kind) String() string {
	if k == SSD {
		return "ssd"
	}
	return "hdd"
}

// Profile holds the cost parameters of a device class.
type Profile struct {
	Kind         Kind
	SeqReadBW    float64       // bytes/second, sequential reads
	SeqWriteBW   float64       // bytes/second, sequential writes
	RandReadLat  time.Duration // per-op access latency for random reads
	RandWriteLat time.Duration // per-op access latency for random writes
	SeqOpLat     time.Duration // fixed per-op overhead for sequential ops
	// PageSize is the flash program unit; random writes smaller than a
	// page force a whole-page program (read-modify-write in the FTL).
	// Zero disables the wear model (HDD).
	PageSize int64
	// EraseBlockSize is the flash erase unit used to derive erase counts
	// from programmed bytes. Zero disables the wear model.
	EraseBlockSize int64
	// Parallelism is the device's internal command concurrency (flash
	// channels / NCQ depth): an operation still takes its full latency,
	// but the device sustains Parallelism of them at once, so only
	// latency/Parallelism of busy time accrues. HDDs have one head
	// assembly (Parallelism 1).
	Parallelism int
}

// ChameleonSSD approximates the 400 GB datacenter SATA SSDs of the
// paper's Chameleon nodes: ~2 GB/s sequential read, ~1 GB/s sequential
// write, and random 4 KiB latencies in the tens-to-hundreds of
// microseconds — several times the sequential cost, which is the gap TSUE
// exploits (paper §2.3.1).
func ChameleonSSD() Profile {
	return Profile{
		Kind:           SSD,
		SeqReadBW:      2.0e9,
		SeqWriteBW:     1.0e9,
		RandReadLat:    80 * time.Microsecond,
		RandWriteLat:   100 * time.Microsecond,
		SeqOpLat:       10 * time.Microsecond,
		PageSize:       4 << 10,
		EraseBlockSize: 256 << 10,
		Parallelism:    8,
	}
}

// Datacenter2TBHDD approximates the 2 TB HDDs of the paper's second
// testbed (§5.4): ~160 MB/s streaming, ~8 ms random access.
func Datacenter2TBHDD() Profile {
	return Profile{
		Kind:         HDD,
		SeqReadBW:    160e6,
		SeqWriteBW:   160e6,
		RandReadLat:  8 * time.Millisecond,
		RandWriteLat: 8 * time.Millisecond,
		SeqOpLat:     50 * time.Microsecond,
		Parallelism:  1,
	}
}

// Stats is a snapshot of a device's accumulated workload.
type Stats struct {
	Reads           int64
	ReadBytes       int64
	Writes          int64
	WriteBytes      int64
	Overwrites      int64 // in-place writes to previously written space
	OverwriteBytes  int64
	RandomOps       int64
	SeqOps          int64
	ProgrammedBytes int64 // flash pages programmed x page size (SSD only)
	EraseOps        int64 // derived: programmed bytes / erase block size
}

// Add returns the element-wise sum of two snapshots.
func (s Stats) Add(o Stats) Stats {
	s.Reads += o.Reads
	s.ReadBytes += o.ReadBytes
	s.Writes += o.Writes
	s.WriteBytes += o.WriteBytes
	s.Overwrites += o.Overwrites
	s.OverwriteBytes += o.OverwriteBytes
	s.RandomOps += o.RandomOps
	s.SeqOps += o.SeqOps
	s.ProgrammedBytes += o.ProgrammedBytes
	s.EraseOps += o.EraseOps
	return s
}

// Device prices and accounts storage operations. Safe for concurrent use.
type Device struct {
	profile Profile
	res     *sim.Resource

	// slow holds the fault-injection latency multiplier as float64 bits;
	// 0 means no multiplier has been set (factor 1).
	slow atomic.Uint64

	mu    sync.Mutex
	stats Stats
}

// New creates a device with the given profile. The name identifies the
// underlying sim.Resource (e.g. "osd3/ssd").
func New(name string, p Profile) *Device {
	if p.SeqReadBW <= 0 || p.SeqWriteBW <= 0 {
		panic(fmt.Sprintf("device: profile %q has non-positive bandwidth", name))
	}
	if p.Parallelism < 1 {
		p.Parallelism = 1
	}
	return &Device{profile: p, res: sim.NewResource(name)}
}

// Profile returns the device's cost profile.
func (d *Device) Profile() Profile { return d.profile }

// SetSlowdown sets a latency multiplier applied to every subsequent
// read and write — the scenario harness's slow-device fault: a value of
// 4 makes the device price each operation at 4x its profile cost.
// Factors below 1 (including 0) restore full speed. Safe to flip while
// operations are in flight; in-flight charges use whichever factor they
// observed.
func (d *Device) SetSlowdown(factor float64) {
	if factor < 1 {
		factor = 1
	}
	d.slow.Store(math.Float64bits(factor))
}

// Slowdown returns the current latency multiplier (1 when healthy).
func (d *Device) Slowdown() float64 {
	bits := d.slow.Load()
	if bits == 0 {
		return 1
	}
	return math.Float64frombits(bits)
}

// throttle applies the current slowdown factor to a priced latency.
func (d *Device) throttle(lat time.Duration) time.Duration {
	if f := d.Slowdown(); f > 1 {
		return time.Duration(float64(lat) * f)
	}
	return lat
}

// Resource exposes the busy-time accounting resource.
func (d *Device) Resource() *sim.Resource { return d.res }

// Read charges a read of size bytes and returns its modeled latency.
// random selects the random-access cost model. The busy time is
// accounted to class, so device charges separate foreground from
// maintenance work the same way NIC charges do.
func (d *Device) Read(class sim.Class, size int64, random bool) time.Duration {
	if size < 0 {
		panic("device: negative read size")
	}
	var lat time.Duration
	if random {
		lat = d.profile.RandReadLat + transfer(size, d.profile.SeqReadBW)
	} else {
		lat = d.profile.SeqOpLat + transfer(size, d.profile.SeqReadBW)
	}
	lat = d.throttle(lat)
	d.mu.Lock()
	d.stats.Reads++
	d.stats.ReadBytes += size
	d.countKind(random)
	d.mu.Unlock()
	d.res.Charge(class, lat/time.Duration(d.profile.Parallelism))
	return lat
}

// Write charges a write and returns its modeled latency. random selects
// the random-access cost model; overwrite marks an in-place update of
// previously written space (the paper's "write penalty"), which feeds the
// SSD wear model with whole-page programming. The busy time is
// accounted to class.
func (d *Device) Write(class sim.Class, size int64, random, overwrite bool) time.Duration {
	if size < 0 {
		panic("device: negative write size")
	}
	var lat time.Duration
	if random {
		lat = d.profile.RandWriteLat + transfer(size, d.profile.SeqWriteBW)
	} else {
		lat = d.profile.SeqOpLat + transfer(size, d.profile.SeqWriteBW)
	}
	lat = d.throttle(lat)
	d.mu.Lock()
	d.stats.Writes++
	d.stats.WriteBytes += size
	d.countKind(random)
	if overwrite {
		d.stats.Overwrites++
		d.stats.OverwriteBytes += size
	}
	if ps := d.profile.PageSize; ps > 0 {
		programmed := size
		if overwrite {
			// The FTL programs whole pages: a 512 B in-place update
			// still burns a full page (and on sub-page writes, a
			// read-modify-write of that page).
			programmed = ((size + ps - 1) / ps) * ps
		}
		d.stats.ProgrammedBytes += programmed
	}
	d.mu.Unlock()
	d.res.Charge(class, lat/time.Duration(d.profile.Parallelism))
	return lat
}

func (d *Device) countKind(random bool) {
	if random {
		d.stats.RandomOps++
	} else {
		d.stats.SeqOps++
	}
}

// Stats returns a snapshot of the accumulated workload, with EraseOps
// derived from programmed bytes at the profile's erase-block granularity.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	s := d.stats
	d.mu.Unlock()
	if eb := d.profile.EraseBlockSize; eb > 0 {
		s.EraseOps = (s.ProgrammedBytes + eb - 1) / eb
		if s.ProgrammedBytes == 0 {
			s.EraseOps = 0
		}
	}
	return s
}

// Reset clears both workload counters and busy time.
func (d *Device) Reset() {
	d.mu.Lock()
	d.stats = Stats{}
	d.mu.Unlock()
	d.res.Reset()
}

func transfer(size int64, bw float64) time.Duration {
	return time.Duration(float64(size) / bw * float64(time.Second))
}
