// Command ecfscli is a minimal client for a TCP-deployed ECFS cluster
// (see cmd/ecfsd).
//
// It needs only the MDS address — geometry, block size and node
// addresses come from wire.KResolveAddr:
//
//	ecfscli -mds :7000 put <name> <localfile>
//	ecfscli -mds :7000 get <name> <off> <len>
//	ecfscli -mds :7000 update <name> <off> <hexbytes>
package main

import (
	"context"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strconv"

	"repro/internal/ecfs"
)

func main() {
	mdsAddr := flag.String("mds", "", "MDS address: nodes, geometry and block size are discovered through it")
	flag.Parse()
	args := flag.Args()
	if len(args) < 2 {
		usage()
	}
	if *mdsAddr == "" {
		fatal(fmt.Errorf("-mds required"))
	}
	ctx := context.Background()
	rc, err := ecfs.Dial(ctx, *mdsAddr)
	if err != nil {
		fatal(err)
	}
	defer rc.Close()

	f, err := rc.Client.Open(ctx, args[1])
	if err != nil {
		fatal(err)
	}
	defer f.Close()

	switch args[0] {
	case "put":
		if len(args) != 3 {
			usage()
		}
		data, err := os.ReadFile(args[2])
		if err != nil {
			fatal(err)
		}
		if _, err := f.WriteAt(data, 0); err != nil {
			fatal(err)
		}
		stripes, err := f.Stripes(ctx)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("ecfscli: wrote %q as ino %d (%d bytes, %d stripes)\n", args[1], f.Ino(), len(data), stripes)
	case "get":
		if len(args) != 4 {
			usage()
		}
		off, size := parseI64(args[2]), parseI64(args[3])
		data, _, err := f.ReadRange(ctx, off, int(size))
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(data)
	case "update":
		if len(args) != 4 {
			usage()
		}
		payload, err := hex.DecodeString(args[3])
		if err != nil {
			fatal(fmt.Errorf("bad hex payload: %w", err))
		}
		lat, err := f.UpdateAt(ctx, parseI64(args[2]), payload, 0)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("ecfscli: updated %d bytes at %s (modeled latency %v)\n", len(payload), args[2], lat)
	default:
		usage()
	}
}

func parseI64(s string) int64 {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		fatal(fmt.Errorf("bad number %q", s))
	}
	return v
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: ecfscli -mds host:port put|get|update ...")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "ecfscli: %v\n", err)
	os.Exit(1)
}
