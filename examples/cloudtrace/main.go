// Cloudtrace: replay synthetic Ali-Cloud and Ten-Cloud block traces (the
// workloads of the paper's Fig. 5) against TSUE and the strongest
// baseline, Parity Logging, and report aggregate update throughput —
// reproducing the paper's headline result that TSUE's advantage is
// larger on the high-locality Ten-Cloud trace.
package main

import (
	"context"
	"fmt"
	"log"

	tsue "repro"
)

func main() {
	const (
		fileSize = 16 << 20
		ops      = 5000
		clients  = 32
	)
	fmt.Printf("replaying %d ops over a %d MiB volume, %d clients, RS(6,4), 16 OSDs\n\n",
		ops, fileSize>>20, clients)
	fmt.Printf("%-12s %-8s %12s %14s\n", "trace", "method", "IOPS", "avg latency")
	for _, traceName := range []string{"ali-cloud", "ten-cloud"} {
		for _, method := range []string{"pl", "tsue"} {
			iops, avg := replay(traceName, method, fileSize, ops, clients)
			fmt.Printf("%-12s %-8s %12.0f %14v\n", traceName, method, iops, avg)
		}
		fmt.Println()
	}
}

func replay(traceName, method string, fileSize int64, ops, clients int) (float64, string) {
	ctx := context.Background()
	opts := tsue.DefaultOptions()
	opts.Method = method
	opts.BlockSize = 128 << 10
	cfg := tsue.DefaultStrategyConfig()
	cfg.UnitSize = 1 << 20
	opts.Strategy = &cfg

	cluster := tsue.MustNewCluster(opts)
	defer cluster.Close()

	var tr *tsue.Trace
	switch traceName {
	case "ali-cloud":
		tr = tsue.AliCloudTrace(fileSize, ops, 7)
	case "ten-cloud":
		tr = tsue.TenCloudTrace(fileSize, ops, 7)
	}
	rep := tsue.NewReplayer(cluster, clients)
	f, err := rep.Prepare(ctx, traceName, fileSize)
	if err != nil {
		log.Fatal(err)
	}
	res, err := rep.Run(ctx, tr, f)
	if err != nil {
		log.Fatal(err)
	}
	if res.Errors > 0 {
		log.Fatalf("%d replay errors", res.Errors)
	}
	// Consistency is part of the demo: flush and verify every stripe.
	if err := cluster.Flush(ctx); err != nil {
		log.Fatal(err)
	}
	if err := cluster.VerifyStripes(f, nil); err != nil {
		log.Fatal(err)
	}
	return rep.Throughput(res), res.AvgLatency.String()
}
