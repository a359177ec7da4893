// Command benchmark is the repository's one benchmark (ISSUE 12). It stands
// the real fabric up in-process, drives it with signed open- and closed-loop
// clients generated from YCSB under a seed, prints every metric by name and
// unit, gates correctness, and — traced — fills the per-layer table from
// outside the fabric. README.md explains the workloads and the metrics;
// BENCHMARK.json at the repository root lists them for the driver.
//
//	benchmark -workload mem-sat -seed 1 -seconds 24 -trace 0   one run; last line is the driver's JSON
//	benchmark                                                  every workload, untraced then traced
//	benchmark -aa 10                                           A/A: repeats, quartiles, spread, derived bounds
//	benchmark -smoke                                           1 s windows on mem-sat and tcp-loop (the test's run)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the latency and the saturate
// window take half each. The windows are the same on every commit.
const defaultSeconds = 24

func main() {
	var (
		name     = flag.String("workload", "", "run this one workload and end with the driver's JSON line (default: all, untraced then traced)")
		seed     = flag.Int64("seed", 1, "seed for the generated requests and read keys")
		seconds  = flag.Int("seconds", defaultSeconds, "measuring time per run: half latency phase, half saturate")
		trace    = flag.Int("trace", 0, "1 installs the Tap/OnExecute recorders and reports per-layer metrics instead of end-to-end")
		traceOut = flag.String("trace-out", "", "write the traced run's spans to this file as JSON")
		aa       = flag.Int("aa", 0, "A/A mode: this many alternating repeats per workload, then median, quartiles, spread and derived bounds")
		smoke    = flag.Bool("smoke", false, "1 s windows on mem-sat and tcp-loop, in this process")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	var err error
	switch {
	case *smoke:
		err = runSmoke(*seed)
	case *aa > 0:
		err = runAA(*aa, *seed, *seconds, *name)
	case *name == "":
		err = runAll(*seed, *seconds, *traceOut)
	default:
		err = runOne(*name, *seed, *seconds, *trace == 1, *traceOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// optionsFor splits the measuring time into the two windows. Warm-up and ramp
// ride on top of it and are the same on every commit.
func optionsFor(seed int64, seconds int, trace bool, traceOut string) (options, error) {
	// Durable ledgers and probe files go under the directory the benchmark
	// was started from, never outside the checkout.
	root := filepath.Join(".bench_build", "data")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return options{}, err
	}
	window := time.Duration(seconds) * time.Second / 2
	return options{
		seed: seed, window: window, warmup: min(2*time.Second, window), ramp: min(time.Second, window),
		trace: trace, traceOut: traceOut, dataRoot: root,
	}, nil
}

// runOne is the driver's entry: one workload, one run, the result as the last
// line of standard output.
func runOne(name string, seed int64, seconds int, trace bool, traceOut string) error {
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	o, err := optionsFor(seed, seconds, trace, traceOut)
	if err != nil {
		return err
	}
	r, err := runWorkload(w, o)
	if err != nil {
		return err
	}
	r.print()
	line, err := json.Marshal(r.result())
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if len(r.gateErrs) > 0 {
		return fmt.Errorf("%s: %d correctness violations", name, len(r.gateErrs))
	}
	return nil
}

// runSmoke keeps the harness alive under go test: both transports, tracing
// and the gate, with windows too short to mean anything.
func runSmoke(seed int64) error {
	if err := runOne("mem-sat", seed, 2, false, ""); err != nil {
		return err
	}
	return runOne("tcp-loop", seed, 2, true, "")
}
