// Command resbench models the tables and figures of the ResilientDB paper's
// evaluation for GeoBFT and PBFT on the calibrated WAN simulator.
//
// Usage:
//
//	resbench -experiment all|table1|table2|fig10|fig11|fig12a|fig12b|fig12c|fig13 [-seed N] [-protocols geobft,pbft]
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"resilientdb/internal/bench"
)

func main() {
	experiment := flag.String("experiment", "all", "which experiment to run")
	seed := flag.Int64("seed", 42, "simulation seed")
	protoList := flag.String("protocols", "", "comma-separated protocol subset (default: all)")
	flag.Parse()

	protocols := bench.AllProtocols
	if *protoList != "" {
		protocols = nil
		for _, name := range strings.Split(*protoList, ",") {
			p := bench.Protocol(strings.TrimSpace(name))
			if !slices.Contains(bench.AllProtocols, p) {
				fmt.Fprintf(os.Stderr, "resbench: unknown protocol %q (valid: %v)\n", p, bench.AllProtocols)
				os.Exit(2)
			}
			protocols = append(protocols, p)
		}
	}

	run := func(name string, fn func()) {
		if *experiment != "all" && *experiment != name {
			return
		}
		start := time.Now()
		fn()
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n\n", name, time.Since(start).Round(time.Second))
	}

	run("table1", func() { bench.PrintTable1(os.Stdout, bench.Table1()) })
	run("table2", func() { bench.PrintTable2(os.Stdout, bench.Table2()) })
	run("fig10", func() {
		bench.PrintFigure(os.Stdout,
			"Figure 10: throughput and latency vs number of clusters (zn=60, batch=100)",
			"clusters", bench.Figure10(protocols, *seed))
	})
	run("fig11", func() {
		bench.PrintFigure(os.Stdout,
			"Figure 11: throughput and latency vs replicas per cluster (z=4, batch=100)",
			"n", bench.Figure11(protocols, *seed))
	})
	run("fig12a", func() {
		bench.PrintFigure(os.Stdout,
			"Figure 12 (left): throughput with one non-primary failure (z=4)",
			"n", bench.Figure12Single(protocols, *seed))
	})
	run("fig12b", func() {
		bench.PrintFigure(os.Stdout,
			"Figure 12 (middle): throughput with f non-primary failures per cluster (z=4)",
			"n", bench.Figure12F(protocols, *seed))
	})
	run("fig12c", func() {
		bench.PrintFigure(os.Stdout,
			"Figure 12 (right): throughput with a single primary failure (z=4, GeoBFT vs PBFT)",
			"n", bench.Figure12Primary(*seed))
	})
	run("fig13", func() {
		bench.PrintFigure(os.Stdout,
			"Figure 13: throughput vs batch size (z=4, n=7)",
			"batch", bench.Figure13(protocols, *seed))
	})
}
