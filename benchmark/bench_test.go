package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"resilientdb/internal/types"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}, {10, 1}, {11, 2}} {
		if got := percentile(s, tc.p); got != tc.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	// The evidence behind a tail percentile: samples strictly above its rank.
	for _, tc := range []struct{ n, want int }{{2400, 24}, {1200, 12}, {999, 9}, {100, 1}, {0, 0}} {
		if got := beyond(tc.n, 99); got != tc.want {
			t.Errorf("beyond(%d, 99) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// The driver judges steadiness with Python's statistics.quantiles(v, n=4);
// -aa must print the same spread. Expected values are Python's.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{2.1, 2.4, 2.2, 9.0, 2.3})
	if !near(q1, 2.15) || !near(q3, 5.7) {
		t.Errorf("quartiles of five = %v, %v; Python gives 2.15, 5.7", q1, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}

func TestDueTimes(t *testing.T) {
	start := time.Unix(1000, 0)
	if got := dueTime(start, 200, 0, 0); !got.Equal(start) {
		t.Errorf("first due instant %v, want the start", got)
	}
	if got := dueTime(start, 200, 300, 0); !got.Equal(start.Add(1500 * time.Millisecond)) {
		t.Errorf("300th due instant at 200/s is %v after start, want 1.5s", got.Sub(start))
	}
	if got := dueTime(start, 100, 7, 0.5); !got.Equal(start.Add(75 * time.Millisecond)) {
		t.Errorf("7th slot at 100/s, half a period in, is %v after start, want 75ms", got.Sub(start))
	}
}

// The pacer offers its whole schedule, in order, and never early — even to a
// consumer that falls behind.
func TestPaceOffersWholeScheduleNeverEarly(t *testing.T) {
	start := time.Now().Add(5 * time.Millisecond)
	var got []time.Time
	for due := range pace(start, 100*time.Millisecond, 500, func() float64 { return 0 }) {
		if now := time.Now(); now.Before(due) {
			t.Errorf("instant due at +%v handed out %v early", due.Sub(start), due.Sub(now))
		}
		got = append(got, due)
		if len(got) == 10 {
			time.Sleep(20 * time.Millisecond) // a stall downstream must not thin the schedule
		}
	}
	if len(got) != 50 {
		t.Fatalf("pacer offered %d instants in 100ms at 500/s, want 50", len(got))
	}
	for k, due := range got {
		if !due.Equal(dueTime(start, 500, k, 0)) {
			t.Fatalf("instant %d is +%v, want +%v", k, due.Sub(start), dueTime(start, 500, k, 0).Sub(start))
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	parent := &span{StartUS: 100, EndUS: 200}
	if got := parent.selfUS(); got != 100 {
		t.Errorf("childless span: self %v, want its duration 100", got)
	}
	parent.Children = []*span{{StartUS: 100, EndUS: 130}, {StartUS: 130, EndUS: 200}}
	if got := parent.selfUS(); got != 0 {
		t.Errorf("children that tile the span: self %v, want 0", got)
	}
	parent.Children = []*span{{StartUS: 110, EndUS: 150}, {StartUS: 140, EndUS: 160}}
	if got := parent.selfUS(); got != 50 {
		t.Errorf("overlapping children cover 110-160 once: self %v, want 50", got)
	}
	parent.Children = []*span{{StartUS: 50, EndUS: 120}, {StartUS: 190, EndUS: 300}, {StartUS: 400, EndUS: 500}}
	if got := parent.selfUS(); got != 70 {
		t.Errorf("children reaching outside count for the part inside: self %v, want 70", got)
	}
}

// A request's four child spans tile it even when a boundary was observed out
// of order: each is clamped to its predecessor.
func TestRequestSpansTile(t *testing.T) {
	origin := time.Unix(0, 0)
	at := func(us int) time.Time { return origin.Add(time.Duration(us) * time.Microsecond) }
	r := &reqTrace{client: types.ClientIDBase + 3, seq: 7, phase: "latency", ok: true,
		start: at(1000), propose: at(1400), share: at(2600), exec: at(2500), done: at(3000)}
	if !r.complete() {
		t.Fatal("all boundaries set, trace not complete")
	}
	req := r.spans(origin)
	if len(req.Children) != len(spanNames) {
		t.Fatalf("%d child spans, want %d", len(req.Children), len(spanNames))
	}
	want := []float64{400, 1200, 0, 400} // exec seen before share: the wait is clamped to zero
	sum := 0.0
	for i, c := range req.Children {
		if c.Name != spanNames[i] || c.durUS() != want[i] {
			t.Errorf("child %d is %s for %v us, want %s for %v us", i, c.Name, c.durUS(), spanNames[i], want[i])
		}
		sum += c.durUS()
	}
	if sum != req.durUS() || req.selfUS() != 0 {
		t.Errorf("children add up to %v of %v us, request self time %v: they must tile it", sum, req.durUS(), req.selfUS())
	}
	r.share = time.Time{}
	if r.complete() {
		t.Error("trace with an unobserved boundary reported complete")
	}
}

// BENCHMARK.json is the driver's copy of the tables in this package; the two
// must not drift.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark directory: %v", err)
	}
	type entry struct {
		Name, Why, Unit, Better string
		Bound                   float64
	}
	var file struct {
		Command    []string
		Paths      []string
		RunSeconds int     `json:"run_seconds"`
		Workloads  []entry `json:"workloads"`
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the benchmark's default is %d", file.RunSeconds, defaultSeconds)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, the benchmark has %d", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := file.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d is %q (%q), the benchmark's is %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	check := func(kind string, listed []entry, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Errorf("%s: %d metrics listed, the benchmark has %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			got := listed[i]
			if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
				t.Errorf("%s metric %d is %s [%s, %s], the benchmark's is %s [%s, %s]", kind, i, got.Name, got.Unit, got.Better, d.name, d.unit, d.better)
			}
			if bounded && (got.Bound <= 0 || got.Bound > maxBound) {
				t.Errorf("%s metric %s: bound %v outside (0, %v]", kind, d.name, got.Bound, maxBound)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd, true)
	check("per_layer", file.PerLayer, perLayer, false)
}

// The smoke run keeps the whole harness alive: both transports, tracing with
// the layer probes, the correctness gate and the result line, with windows
// too short to mean anything.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("stands up two deployments")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil { // ledgers and probe files land here, not in the source tree
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	if err := runSmoke(1); err != nil {
		t.Fatal(err)
	}
}
