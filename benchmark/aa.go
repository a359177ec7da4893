package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// Multi-run modes start one child process per run, as the driver does: a run's
// peak RSS, CPU time and set-up are then its own, not the sum of whatever ran
// before it in the same process.

// child runs this binary on one workload and returns its result line and
// everything it printed before it.
func child(name string, seed int64, seconds int, trace bool, traceOut string) (result, string, error) {
	var res result
	exe, err := os.Executable()
	if err != nil {
		return res, "", err
	}
	args := []string{"-workload", name, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds), "-trace", "0"}
	if trace {
		args[len(args)-1] = "1"
	}
	if traceOut != "" {
		args = append(args, "-trace-out", traceOut)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	out = bytes.TrimRight(out, "\n")
	i := bytes.LastIndexByte(out, '\n')
	if err := json.Unmarshal(out[i+1:], &res); err != nil {
		return res, string(out), fmt.Errorf("%s: no result line (%v): %v", name, runErr, err)
	}
	return res, string(out[:i+1]), runErr
}

// runAll is the one command that prints every named metric for all four
// workloads: each untraced for the end-to-end metrics, then traced for the
// layer table, with what the observing cost.
func runAll(seed int64, seconds int, traceOut string) error {
	failed := false
	for _, w := range workloads {
		plain, out, err := child(w.name, seed, seconds, false, "")
		fmt.Print(out)
		failed = failed || err != nil
		file := ""
		if traceOut != "" {
			file = traceOut + "." + w.name + ".json"
		}
		traced, out, err := child(w.name, seed, seconds, true, file)
		fmt.Print(out)
		failed = failed || err != nil
		if untraced := plain.Metrics["txn_per_s"].Value; untraced > 0 {
			fmt.Printf("  %-40s %14.4f frac (1 - traced/untraced txn_per_s)\n", "trace_overhead_frac",
				1-traced.Metrics["gen.traced_txn_per_s"].Value/untraced)
		}
		sum := 0.0
		for _, name := range spanNames {
			sum += traced.Metrics[name+"_ms_p50"].Value
		}
		fmt.Printf("  span p50s add up to %.3f ms; commit_p50_ms is %.3f ms traced, %.3f ms untraced\n",
			sum, traced.Metrics["gen.traced_commit_p50_ms"].Value, plain.Metrics["commit_p50_ms"].Value)
		if depth := traced.Metrics["core.rounds_in_flight_p99"].Value; depth > 0 {
			fmt.Printf("  pipeline depth: rounds in flight p99 %.0f of the default 48\n", depth)
		}
	}
	if failed {
		return fmt.Errorf("a workload failed its correctness gate or did not run")
	}
	return nil
}

// Bounds: a metric may worsen by defaultBound of the parent's median before a
// change counts as a regression, unless A/A runs of one commit spread by more
// than a third of that; then three times the measured spread, up to the most
// the driver accepts.
const (
	defaultBound = 0.10
	maxBound     = 0.25
)

// runAA repeats every workload n times in alternating order, each repeat
// under its own seed, and prints per end-to-end metric the median, quartiles
// and spread, the bound that spread calls for, and how far the medians of the
// forward-order and the reverse-order repeats lie apart — the "two sets of
// runs of the same code agree" check.
func runAA(n int, seed int64, seconds int, only string) error {
	list := workloads
	if only != "" {
		w := findWorkload(only)
		if w == nil {
			return fmt.Errorf("unknown workload %q", only)
		}
		list = []workload{*w}
	}
	vals := map[string]map[string][]float64{} // workload → metric → one value per repeat
	for _, w := range list {
		vals[w.name] = map[string][]float64{}
	}
	for rep := 0; rep < n; rep++ {
		for i := range list {
			w := list[i]
			if rep%2 == 1 {
				w = list[len(list)-1-i]
			}
			res, out, err := child(w.name, seed+int64(rep), seconds, false, "")
			if err != nil {
				fmt.Print(out)
				return err
			}
			fmt.Printf("repeat %d %-10s", rep, w.name)
			for _, m := range endToEnd {
				v := res.Metrics[m.name].Value
				vals[w.name][m.name] = append(vals[w.name][m.name], v)
				fmt.Printf(" %s=%.4f", m.name, v)
			}
			fmt.Printf(" failed=%d/%d\n", res.Failed, res.Attempted)
		}
	}
	bounds := map[string]float64{}
	fmt.Printf("\n%-10s %-18s %12s %12s %12s %8s %8s %10s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound", "halves")
	for _, w := range list {
		for _, m := range endToEnd {
			v := vals[w.name][m.name]
			q1, q3 := quartiles(v)
			sp := spread(v)
			bound := math.Min(math.Max(defaultBound, 3*sp), maxBound)
			bounds[m.name] = math.Max(bounds[m.name], bound)
			var even, odd []float64
			for i, x := range v {
				if i%2 == 0 {
					even = append(even, x)
				} else {
					odd = append(odd, x)
				}
			}
			halves := 0.0
			if len(odd) > 0 && median(even) != 0 {
				halves = math.Abs(median(odd)-median(even)) / median(even)
			}
			note := ""
			if sp > bound {
				note = "  spread exceeds the largest bound: re-bound or demote"
			}
			fmt.Printf("%-10s %-18s %12.4f %12.4f %12.4f %7.1f%% %7.1f%% %9.1f%%%s\n",
				w.name, m.name, median(v), q1, q3, 100*sp, 100*bound, 100*halves, note)
		}
	}
	fmt.Println("\nbounds for BENCHMARK.json (widest any workload needs):")
	for _, m := range endToEnd {
		fmt.Printf("  %-18s %.2f\n", m.name, bounds[m.name])
	}
	return nil
}
