// Package trace provides the block-trace workloads the paper evaluates
// on: synthetic equivalents of the Ali-Cloud trace [22], the Ten-Cloud
// (Tencent CBS) trace [41], and seven MSR Cambridge volumes [9], plus a
// CSV format and a multi-client replayer.
//
// The generators are parameterized to match the statistics the paper
// itself cites (§2.1):
//
//   - Ali-Cloud: 75% of requests are updates; of those 46% are exactly
//     4 KiB and ~60% are <= 16 KiB.
//   - Ten-Cloud: 69% updates; 69% are 4 KiB and 88% <= 16 KiB; locality
//     is much stronger ("over 80% of datasets touch < 5% of their data
//     volume"), modelled with a higher Zipf skew over a smaller hot set.
//   - MSR volumes: >= 90% of writes are updates, 60% < 4 KiB,
//     90% < 16 KiB, with per-volume mixes.
//
// Offsets follow a Zipf distribution over fixed-size extents so repeated
// and adjacent updates occur with realistic probability — the
// spatio-temporal locality TSUE exploits.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"time"
)

// OpKind is the request type.
type OpKind uint8

const (
	// OpUpdate overwrites existing file bytes.
	OpUpdate OpKind = iota
	// OpRead reads file bytes.
	OpRead
)

func (k OpKind) String() string {
	if k == OpUpdate {
		return "U"
	}
	return "R"
}

// Op is one trace record.
type Op struct {
	Kind OpKind
	Off  int64         // file byte offset
	Size int           // bytes
	At   time.Duration // virtual arrival time since replay start
}

// Trace is a replayable request sequence against one logical volume.
type Trace struct {
	Name     string
	FileSize int64 // volume size the offsets fall within
	Ops      []Op
}

// Stats summarizes a trace.
type Stats struct {
	Ops         int
	Updates     int
	Reads       int
	UpdateFrac  float64
	Frac4K      float64 // updates exactly 4 KiB
	FracLE16K   float64 // updates <= 16 KiB
	UpdateBytes int64
	Duration    time.Duration
}

// Stats computes summary statistics.
func (t *Trace) Stats() Stats {
	s := Stats{Ops: len(t.Ops)}
	var n4k, le16k int
	for _, op := range t.Ops {
		if op.Kind == OpUpdate {
			s.Updates++
			s.UpdateBytes += int64(op.Size)
			if op.Size == 4<<10 {
				n4k++
			}
			if op.Size <= 16<<10 {
				le16k++
			}
		} else {
			s.Reads++
		}
		if op.At > s.Duration {
			s.Duration = op.At
		}
	}
	if s.Ops > 0 {
		s.UpdateFrac = float64(s.Updates) / float64(s.Ops)
	}
	if s.Updates > 0 {
		s.Frac4K = float64(n4k) / float64(s.Updates)
		s.FracLE16K = float64(le16k) / float64(s.Updates)
	}
	return s
}

// Params parameterizes a synthetic generator.
type Params struct {
	Name       string
	FileSize   int64
	Ops        int
	UpdateFrac float64 // fraction of requests that are updates
	// SizeDist is a CDF over update sizes: pairs of (cumulative
	// probability, size). Sampled by the first entry whose probability
	// bound exceeds a uniform draw.
	SizeDist []SizePoint
	// ZipfS is the Zipf skew (>1; larger = stronger locality); ZipfHot
	// is the fraction of the volume the hot extent set covers.
	ZipfS   float64
	ZipfHot float64
	// Rate is the aggregate arrival rate (requests/second) used to
	// assign virtual timestamps.
	Rate float64
	Seed int64
}

// SizePoint is one step of a size CDF.
type SizePoint struct {
	P    float64
	Size int
}

// alignGrain is the offset alignment of generated requests (512 B, the
// sector size of the source traces).
const alignGrain = 512

// Generate produces a synthetic trace from params.
func Generate(p Params) *Trace {
	if p.Ops <= 0 || p.FileSize <= 0 {
		return &Trace{Name: p.Name, FileSize: p.FileSize}
	}
	if p.Rate <= 0 {
		p.Rate = 50_000
	}
	rng := rand.New(rand.NewSource(p.Seed))
	// Hot-set extents: offsets are drawn per-extent via Zipf ranks so
	// the same extents are hit repeatedly (temporal locality) and
	// neighboring sectors inside an extent cluster (spatial locality).
	extentSize := int64(64 << 10)
	hotExtents := max(1, int64(float64(p.FileSize)*p.ZipfHot)/extentSize)
	zipf := rand.NewZipf(rng, p.ZipfS, 1, uint64(hotExtents-1))
	totalExtents := max(1, p.FileSize/extentSize)
	// A fixed permutation scatters hot extents across the volume.
	perm := rng.Perm(int(totalExtents))

	t := &Trace{Name: p.Name, FileSize: p.FileSize, Ops: make([]Op, 0, p.Ops)}
	interval := time.Duration(float64(time.Second) / p.Rate)
	var at time.Duration
	for i := 0; i < p.Ops; i++ {
		at += interval
		var op Op
		op.At = at
		if rng.Float64() < p.UpdateFrac {
			op.Kind = OpUpdate
		} else {
			op.Kind = OpRead
		}
		op.Size = sampleSize(rng, p.SizeDist)
		// 90/10 split: most requests hit the hot set.
		var extent int64
		if rng.Float64() < 0.9 {
			extent = int64(perm[int(zipf.Uint64())%len(perm)])
		} else {
			extent = rng.Int63n(totalExtents)
		}
		base := extent * extentSize
		span := extentSize - int64(op.Size)
		if span < 1 {
			span = 1
		}
		off := base + (rng.Int63n(span))/alignGrain*alignGrain
		if off+int64(op.Size) > p.FileSize {
			off = p.FileSize - int64(op.Size)
			if off < 0 {
				off, op.Size = 0, int(p.FileSize)
			}
		}
		op.Off = off
		t.Ops = append(t.Ops, op)
	}
	return t
}

func sampleSize(rng *rand.Rand, dist []SizePoint) int {
	if len(dist) == 0 {
		return 4 << 10
	}
	u := rng.Float64()
	for _, sp := range dist {
		if u < sp.P {
			return sp.Size
		}
	}
	return dist[len(dist)-1].Size
}

// WriteCSV streams the trace in a simple CSV form:
// kind,offset,size,at_ns — one op per line after a header.
func (t *Trace) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# name=%s file_size=%d\n", t.Name, t.FileSize); err != nil {
		return err
	}
	for _, op := range t.Ops {
		if _, err := fmt.Fprintf(bw, "%s,%d,%d,%d\n", op.Kind, op.Off, op.Size, op.At.Nanoseconds()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV parses a trace written by WriteCSV.
func ReadCSV(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	t := &Trace{}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			for _, field := range strings.Fields(strings.TrimPrefix(line, "#")) {
				if v, ok := strings.CutPrefix(field, "name="); ok {
					t.Name = v
				}
				if v, ok := strings.CutPrefix(field, "file_size="); ok {
					n, err := strconv.ParseInt(v, 10, 64)
					if err != nil || n < 0 {
						return nil, fmt.Errorf("trace: bad file_size %q", v)
					}
					t.FileSize = n
				}
			}
			continue
		}
		parts := strings.Split(line, ",")
		if len(parts) != 4 {
			return nil, fmt.Errorf("trace: bad line %q", line)
		}
		var op Op
		switch parts[0] {
		case "U":
			op.Kind = OpUpdate
		case "R":
			op.Kind = OpRead
		default:
			return nil, fmt.Errorf("trace: bad op kind %q", parts[0])
		}
		off, err := strconv.ParseInt(parts[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: bad offset %q: %w", parts[1], err)
		}
		size, err := strconv.Atoi(parts[2])
		if err != nil {
			return nil, fmt.Errorf("trace: bad size %q: %w", parts[2], err)
		}
		ns, err := strconv.ParseInt(parts[3], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: bad timestamp %q: %w", parts[3], err)
		}
		if off < 0 || size <= 0 || ns < 0 {
			return nil, fmt.Errorf("trace: bad line %q: negative offset/timestamp or non-positive size", line)
		}
		op.Off, op.Size, op.At = off, size, time.Duration(ns)
		t.Ops = append(t.Ops, op)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}
