// Quickstart: bring up an in-process ECFS cluster running TSUE, open a
// file handle (the client's one data surface), write a striped+encoded file
// through io.WriterAt, apply partial updates through the two-stage
// update path, read them back immediately (read-your-writes via the
// DataLog), then flush the three log layers and verify that every stripe
// still satisfies its parity equations.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math/rand"

	tsue "repro"
)

func main() {
	ctx := context.Background()
	opts := tsue.DefaultOptions()
	opts.BlockSize = 256 << 10 // keep the demo light
	cluster := tsue.MustNewCluster(opts)
	defer cluster.Close()

	// OpenFile returns a *tsue.File: io.ReaderAt + io.WriterAt +
	// io.Closer, plus UpdateAt for the paper's two-stage updates.
	f, err := cluster.OpenFile(ctx, "demo-volume")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()

	// One full stripe of data: K blocks, encoded into M parity blocks by
	// the client and distributed across distinct OSDs (WriteAt is the
	// "normal write" path; offsets must be stripe-aligned).
	stripeSpan := opts.K * opts.BlockSize
	data := make([]byte, stripeSpan)
	rand.New(rand.NewSource(42)).Read(data)
	if _, err := f.WriteAt(data, 0); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d bytes as RS(%d,%d) stripes across %d OSDs\n",
		len(data), opts.K, opts.M, opts.NumOSDs)

	// Partial updates: these take TSUE's synchronous front end — a
	// sequential DataLog append plus replica forwarding — and return in
	// microseconds of modeled latency; no read-modify-write blocks them.
	payload := []byte("TSUE two-stage update: log append now, recycle later")
	lat, err := f.UpdateAt(ctx, 12345, payload, 0)
	if err != nil {
		log.Fatal(err)
	}
	copy(data[12345:], payload)
	fmt.Printf("update acknowledged after modeled %v (front-end only)\n", lat)

	// Read-your-writes: the DataLog doubles as a read cache.
	got := make([]byte, len(payload))
	if _, err := f.ReadAt(got, 12345); err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		log.Fatalf("stale read: %q", got)
	}
	fmt.Println("read back the update through the file handle")

	// Force the asynchronous back end to finish: DataLog -> DeltaLog ->
	// ParityLog -> parity blocks, then verify all stripes.
	if err := cluster.Flush(ctx); err != nil {
		log.Fatal(err)
	}
	if err := cluster.VerifyStripes(f, data); err != nil {
		log.Fatalf("stripe verification failed: %v", err)
	}
	fmt.Println("all stripes verify: data matches and parity is consistent")
}
