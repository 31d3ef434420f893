// Command timr fronts the TiMR reproduction as subcommands:
//
//	timr run        one-shot temporal queries over advertising logs on
//	                the simulated map-reduce cluster (the original mode)
//	timr serve      long-running elastic serving tier: score arriving ad
//	                events against the trained BT model under an
//	                open-loop Zipf load, with live partition migration
//	timr refresh    incremental BT maintenance: ingest the log one day at
//	                a time, merging summaries instead of recomputing, and
//	                resume a killed run from its durable state
//	timr bench-json run the headline benchmarks and write the perf
//	                trajectory JSON
//
// Usage:
//
//	timr run -q clickcount [-window 6h] [-in events.tsv] [-machines N]
//	timr run -q bt         [-in events.tsv] [-machines N] [-z 1.28]
//	timr run -sql "SELECT AdId, COUNT(*) AS C FROM events WHERE StreamId = 1
//	               GROUP BY AdId WINDOW 6h" [-in events.tsv]
//	timr serve [-requests N] [-rate R] [-machines N] [-rebalance] [-metrics]
//	timr refresh [-days N] [-mode auto|full|delta] [-warm] [-durdir DIR]
//	timr bench-json [-out BENCH_pr10.json]
//
// A missing or unknown subcommand prints usage and exits 2.
package main

import (
	"fmt"
	"os"

	"timr/internal/benchjson"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	args := os.Args[2:]
	switch os.Args[1] {
	case "run":
		runCmd(args)
	case "serve":
		serveCmd(args)
	case "refresh":
		refreshCmd(args)
	case "bench-json":
		if err := benchjson.RunCLI(args); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case "help", "-h", "-help", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "timr: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}

// usage prints the subcommands and their flags to stderr.
func usage() {
	fmt.Fprintln(os.Stderr, "usage: timr <run|serve|refresh|bench-json> [flags]\n\nrun flags:")
	runFlags(nil).PrintDefaults()
	fmt.Fprintln(os.Stderr, "\nserve flags:")
	serveFlags(nil).PrintDefaults()
	fmt.Fprintln(os.Stderr, "\nrefresh flags:")
	refreshFlags(nil).PrintDefaults()
}
