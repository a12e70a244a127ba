// Lifespan: reproduce the paper's SSD-wear argument (§5.3.4 / Table 1).
// The same Ten-Cloud workload replays under every update method; the
// flash-translation-layer model counts programmed pages and erase
// operations. TSUE's sequential log appends and merged overwrites
// program far fewer pages than the in-place baselines, which the paper
// translates into a 2.5x-13x lifespan extension.
package main

import (
	"context"
	"fmt"
	"log"

	tsue "repro"
)

func main() {
	ctx := context.Background()
	const (
		fileSize = 8 << 20
		ops      = 4000
	)
	type row struct {
		method     string
		overwrites int64
		erases     int64
	}
	var rows []row
	var worst int64
	for _, method := range tsue.Methods {
		opts := tsue.DefaultOptions()
		opts.Method = method
		opts.BlockSize = 64 << 10
		cfg := tsue.DefaultStrategyConfig()
		cfg.UnitSize = 512 << 10
		opts.Strategy = &cfg
		cluster := tsue.MustNewCluster(opts)

		tr := tsue.TenCloudTrace(fileSize, ops, 3)
		rep := tsue.NewReplayer(cluster, 16)
		f, err := rep.Prepare(ctx, "wear", fileSize)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := rep.Run(ctx, tr, f); err != nil {
			log.Fatal(err)
		}
		// Include the deferred recycle bill: all methods must leave the
		// stripes fully consistent.
		if err := cluster.Flush(ctx); err != nil {
			log.Fatal(err)
		}
		if err := cluster.VerifyStripes(f, nil); err != nil {
			log.Fatal(err)
		}
		st := cluster.DeviceStats()
		rows = append(rows, row{method, st.Overwrites, st.EraseOps})
		if st.EraseOps > worst {
			worst = st.EraseOps
		}
		cluster.Close()
	}

	fmt.Printf("Ten-Cloud replay, RS(6,4), %d updates — flash wear by update method\n\n", ops)
	fmt.Printf("%-8s %12s %12s %14s\n", "method", "overwrites", "erase ops", "lifespan vs worst")
	for _, r := range rows {
		fmt.Printf("%-8s %12d %12d %13.1fx\n", r.method, r.overwrites, r.erases, float64(worst)/float64(r.erases))
	}
	fmt.Println("\nfewer erases = longer flash life; TSUE turns random overwrites into merged, sequential log traffic")
}
