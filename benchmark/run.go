package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"resilientdb/internal/config"
)

// metricDef names one metric. The two tables below are the benchmark's
// vocabulary: BENCHMARK.json lists exactly these (a test compares them), and
// a later change names its claim as <metric> on <workload> from here.
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},           // opening the deployment → first committed batch; median of setupRepeats set-ups
	{"commit_p50_ms", "ms", "lower"},    // latency phase, submit (due time on wan-geo) → f+1 matching replies
	{"commit_p95_ms", "ms", "lower"},    // same, 95th percentile of each 1 s window, median over the windows
	{"txn_per_s", "1/s", "higher"},      // saturate phase, client-confirmed transactions per 1 s window, median over the windows
	{"cpu_ms_per_batch", "ms", "lower"}, // process user+sys CPU over the saturate phase ÷ batches confirmed in it
	{"rss_mb", "MB", "lower"},           // process resident set, mean over rssMarks fixed amounts of work
}

// value is one measured metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the driver reads: exactly these keys.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// options of one workload run.
type options struct {
	seed     int64
	window   time.Duration // each of the latency and the saturate measuring windows
	warmup   time.Duration // unmeasured latency-phase traffic first: connections dial, caches fill
	ramp     time.Duration // head of the saturate phase left out of txn_per_s
	trace    bool
	traceOut string
	dataRoot string
}

// setupRepeats is how many times a run stands the deployment up: one number
// from one set-up is mostly noise, so setup_s is the median. The first is the
// deployment measured; the others follow the gate, because what a set-up
// leaves behind — collected, or not yet — would sit in the measured
// deployment's rss_mb: 90 MB or 170 MB, by the collector's timing.
const setupRepeats = 9

// statWindow is the slice of a measuring window a robust statistic is taken
// over: commit_p95_ms and txn_per_s are medians across these.
const statWindow = time.Second

// medianWindow cuts [from, from+span) into equal slices of about statWindow
// (one slice when span is shorter), sorts the confirmed samples into them by
// the instant at gives each, and returns the median over the slices of stat.
func medianWindow(samples []sample, from time.Time, span time.Duration, at func(sample) time.Time, stat func(confirmed []sample, width time.Duration) float64) float64 {
	n := max(1, int(span/statWindow))
	width := span / time.Duration(n)
	windows := make([][]sample, n)
	for _, s := range samples {
		if i := int(at(s).Sub(from) / width); s.ok && !at(s).Before(from) && i < n {
			windows[i] = append(windows[i], s)
		}
	}
	stats := make([]float64, n)
	for i, win := range windows {
		stats[i] = stat(win, width)
	}
	return median(stats)
}

// latenessLimit is the generator health bound: an open loop whose pacer ran
// later than this at the 99th percentile did not offer the schedule it claims.
const latenessLimit = 5 * time.Millisecond

// report is everything one run measured, before it is cut down to the driver's
// result line.
type report struct {
	workload *workload
	opts     options
	e2e      map[string]float64
	layer    map[string]float64 // traced runs only
	setups   []float64          // seconds each set-up took
	attempts int
	failed   int
	mark     workMark
	gateErrs []string // correctness violations: non-zero exit
	invalid  []string // validity guards: the numbers are not to be trusted
	notes    []string // host record and sample counts, printed with the metrics
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rss_mb is read at fixed amounts of work, not at the end of a fixed
// time: replicas keep what they commit, so a run that commits more in its
// windows ends larger, and a faster fabric would be charged for its speed.
// The resident set grows in steps as the collector extends the heap, so one
// reading catches a step early or late; the mean of a dozen does not. Every
// workload confirms rssMarks*rssEvery batches well within its run.
const (
	rssEvery = 500
	rssMarks = 12
)

// workMark counts the batches the process has had confirmed and reads the
// resident set as every rssEvery-th of the first rssMarks*rssEvery is.
type workMark struct {
	confirmed atomic.Int64
	mu        sync.Mutex
	readings  []float64 // MB
}

func (m *workMark) confirm() {
	if n := m.confirmed.Add(1); n%rssEvery == 0 && n <= rssMarks*rssEvery {
		mb := residentMB("VmRSS")
		m.mu.Lock()
		m.readings = append(m.readings, mb)
		m.mu.Unlock()
	}
}

// residentMB reads the process's resident set from the kernel: "VmRSS" is what
// is resident now, "VmHWM" the most that ever was.
func residentMB(field string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// stealTime is how long the hypervisor has run other guests while this one had
// work for its processors (0 where the kernel does not say). A run that lost
// much of its time this way was measured on a busy host.
func stealTime() time.Duration {
	data, _ := os.ReadFile("/proc/stat")
	line, _, _ := strings.Cut(string(data), "\n")
	if f := strings.Fields(line); len(f) > 8 && f[0] == "cpu" {
		ticks, _ := strconv.ParseInt(f[8], 10, 64)
		return time.Duration(ticks) * time.Second / 100 // USER_HZ
	}
	return 0
}

// tally folds samples into the attempt and failure counts and returns the
// latencies of the confirmed ones, and how late the generator sent them.
func (r *report) tally(samples []sample) (lat, late []time.Duration) {
	for _, s := range samples {
		r.attempts++
		if !s.ok {
			r.failed++
			continue
		}
		lat = append(lat, s.latency())
		late = append(late, s.late())
	}
	return lat, late
}

// runWorkload stands the workload's deployment up, drives the latency and the
// saturate phase, gates correctness, and (traced) fills the per-layer table.
func runWorkload(w *workload, o options) (*report, error) {
	r := &report{workload: w, opts: o, e2e: map[string]float64{}}

	d, tr, ids, err := r.setUp()
	if err != nil {
		return nil, err
	}
	defer d.close()

	var sm *sampler
	if o.trace {
		sm = startSampler(d, tr)
	}
	// Every phase runs the workload's fixed-rate readers (durable-rw only)
	// beside its writes, for the same window.
	rd := newReaders(d, o.seed, o.trace)
	beside := func(dur time.Duration, writes func(start time.Time) []sample) ([]sample, readResult, time.Time) {
		start := time.Now()
		var reads readResult
		done := make(chan struct{})
		go func() {
			defer close(done)
			reads = rd.run(start, dur)
		}()
		samples := writes(start)
		<-done
		return samples, reads, start
	}
	steal0, phases := stealTime(), time.Now()

	// Latency phase: commit latency with no request queueing behind another of
	// its cluster. Where the processors bound it (LAN workloads) the load is
	// one client per cluster sending one request after another, which keeps
	// them busy: what the same workloads measure through idle processors
	// follows the host's wake-up cost from one quarter hour to the next, not
	// the fabric. Where injected delay bounds it (pacedRate set) the load is an
	// open loop of independent arrivals, each timed from its due instant:
	// sequential clients across regions fall into step with the rounds and
	// their tail has modes. The warm-up is the same traffic, unmeasured.
	latency := func(phase string, seed int64, dur time.Duration) ([]sample, readResult, time.Time) {
		return beside(dur, func(start time.Time) []sample {
			if w.pacedRate > 0 {
				return runPaced(ids, w.clusters, w.pacedRate, seed, phase, start, dur, tr)
			}
			return runClosed(firstSlots(ids, 1), start.Add(dur), phase, tr)
		})
	}
	warm, _, _ := latency("warmup", o.seed+100, o.warmup)
	r.tally(warm)
	latCPU := cpuTime()
	latSamples, latReads, latStart := latency("latency", o.seed, o.window)
	latCPU = cpuTime() - latCPU
	lat, late := r.tally(latSamples)
	commit, lateness := sortedMS(lat), sortedMS(late)
	r.e2e["commit_p50_ms"] = percentile(commit, 50)
	// The tail is the median over 1 s windows of each window's percentile,
	// not the percentile of the phase: the seed now and then stalls for a
	// tenth of a second or more (fsync on durable-rw; unexplained on mem-sat),
	// and what a stall holds up lies beyond any whole-phase percentile. One
	// stall spoils one window. The p99s and the maximum are in the layer table.
	tail := func(p float64) float64 {
		return medianWindow(latSamples, latStart, o.window, func(s sample) time.Time { return s.start },
			func(win []sample, _ time.Duration) float64 {
				lat := make([]time.Duration, len(win))
				for i, s := range win {
					lat[i] = s.latency()
				}
				return percentile(sortedMS(lat), p)
			})
	}
	r.e2e["commit_p95_ms"] = tail(95)
	r.notes = append(r.notes, fmt.Sprintf("latency phase: %d samples, %d beyond p95", len(commit), beyond(len(commit), 95)))
	if beyond(len(commit), 95) < minBeyond {
		r.invalid = append(r.invalid, fmt.Sprintf("commit_p95_ms rests on %d samples beyond it, fewer than %d", beyond(len(commit), 95), minBeyond))
	}
	if w.pacedRate > 0 {
		r.notes = append(r.notes, fmt.Sprintf("open loop at %.0f batches/s: pacer lateness p50 %.3f p99 %.3f ms", w.pacedRate, percentile(lateness, 50), percentile(lateness, 99)))
		if l := percentile(lateness, 99); l > ms(latenessLimit) {
			r.invalid = append(r.invalid, fmt.Sprintf("pacer ran %.3f ms late at p99 (limit %v): the latency phase did not offer its schedule", l, latenessLimit))
		}
	}

	// Saturate phase: every identity at once. Capacity, and what a batch costs
	// in CPU when the processors are never idle. Both count from the end of
	// the ramp.
	type mark struct {
		cpu   time.Duration
		round uint64
	}
	ramped := make(chan mark, 1)
	time.AfterFunc(o.ramp, func() { ramped <- mark{cpuTime(), d.nodes[0].ExecutedRound()} })
	satSamples, satReads, satStart := beside(o.ramp+o.window, func(start time.Time) []sample {
		return runClosed(ids, start.Add(o.ramp+o.window), "saturate", tr)
	})
	from := <-ramped
	satCPU, satRounds := cpuTime()-from.cpu, d.nodes[0].ExecutedRound()-from.round
	r.tally(satSamples)
	// Throughput is the median window's, for the same reason the tail latency
	// is: a stall costs one window, not a share of the total.
	r.e2e["txn_per_s"] = medianWindow(satSamples, satStart.Add(o.ramp), o.window, func(s sample) time.Time { return s.done },
		func(win []sample, width time.Duration) float64 { return float64(len(win)*batchSize) / width.Seconds() })
	// CPU per batch needs no such care: a stall burns no CPU and confirms no
	// batch, so it leaves the ratio alone.
	confirmed := 0
	for _, s := range satSamples {
		if s.ok && !s.done.Before(satStart.Add(o.ramp)) {
			confirmed++
		}
	}
	if confirmed > 0 {
		r.e2e["cpu_ms_per_batch"] = ms(satCPU) / float64(confirmed)
	}
	r.notes = append(r.notes, fmt.Sprintf("the host took %.1f%% of the processors' time for other guests during the phases (steal)",
		100*(stealTime()-steal0).Seconds()/(time.Since(phases).Seconds()*float64(runtime.NumCPU()))))

	quiesced := d.quiesce(5 * time.Second)
	if sm != nil {
		sm.stop()
	}
	readings := r.mark.readings // the load has stopped: no one appends
	if len(readings) == 0 {     // a run too short for one reading is read at its end
		readings = []float64{residentMB("VmRSS")}
	}
	for _, mb := range readings {
		r.e2e["rss_mb"] += mb / float64(len(readings))
	}
	r.notes = append(r.notes, fmt.Sprintf("resident set: %d of %d readings %.0f MB, %.0f MB at its highest, %d batches confirmed",
		len(r.mark.readings), rssMarks, r.mark.readings, residentMB("VmHWM"), r.mark.confirmed.Load()))
	stats := d.stats()

	// Correctness gate: reads against live nodes first, then everything the
	// stopped replicas hold.
	if !quiesced {
		r.gateErrs = append(r.gateErrs, "replicas did not settle on one executed round within 5s of the load stopping")
	}
	g := gate{d: d, ids: ids}
	g.liveReads()
	d.stop()
	g.stopped()
	r.gateErrs = append(r.gateErrs, g.errs...)
	if n := rd.proofRejects(); n > 0 {
		r.gateErrs = append(r.gateErrs, fmt.Sprintf("%d read proofs rejected by fabric.VerifyReadState", n))
	}
	if g.viewChanges > 0 {
		r.invalid = append(r.invalid, fmt.Sprintf("%d view changes: the run measured recovery, not the normal case", g.viewChanges))
	}
	for len(r.setups) < setupRepeats {
		again, _, _, err := r.setUp()
		if err != nil {
			return nil, err
		}
		again.close()
	}
	r.e2e["setup_s"] = median(r.setups)

	r.notes = append(r.notes, fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d %s seed=%d delays: %s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), o.seed, d.delayMatrix()))
	if w.durable {
		r.notes = append(r.notes, "data dir: "+fsNote(d.dataDir))
	}
	if o.trace {
		r.layer = map[string]float64{}
		err := r.fillLayers(d, tr, sm, &g, stats, layerInputs{
			commit: commit, windowP99: tail(99), lateness: lateness, latCPU: latCPU, latReads: latReads,
			satCPU: satCPU, satRounds: satRounds, satTxnPerS: r.e2e["txn_per_s"], satReads: satReads,
		})
		if err != nil {
			return nil, err
		}
		if o.traceOut != "" {
			if err := tr.writeFile(o.traceOut, w.name, o.seed); err != nil {
				return nil, err
			}
		}
	}
	return r, nil
}

// setUp stands the deployment up through its first committed batch, adds the
// time that took to r.setups, and returns the deployment, running, with its
// tracer (traced runs) and client identities.
func (r *report) setUp() (d *deployment, tr *tracer, ids []*identity, err error) {
	w, o := r.workload, r.opts
	t0 := time.Now()
	var h hooks
	if o.trace {
		tr = newTracer(config.NewTopology(w.clusters, replicasPer))
		h = hooks{tap: tr.tap, onExecute: tr.onExecute}
	}
	if d, err = openDeployment(w, o.seed, o.dataRoot, h); err != nil {
		return nil, nil, nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	ids = newIdentities(d, o.seed, &r.mark)
	first := ids[0].submit(ids[0].src.next(), time.Now(), "setup", nil)
	r.setups = append(r.setups, time.Since(t0).Seconds())
	if !first.ok {
		d.close()
		return nil, nil, nil, fmt.Errorf("%s: set-up: first batch not committed within %v", w.name, submitTimeout)
	}
	r.tally([]sample{first})
	return d, tr, ids, nil
}

// quiesce waits until every replica has reported the same executed round on
// several polls in a row, so the gate compares settled state.
func (d *deployment) quiesce(limit time.Duration) bool {
	deadline := time.Now().Add(limit)
	var last uint64
	stable := 0
	for time.Now().Before(deadline) {
		lo, hi := d.nodes[0].ExecutedRound(), d.nodes[0].ExecutedRound()
		for _, n := range d.nodes {
			e := n.ExecutedRound()
			lo, hi = min(lo, e), max(hi, e)
		}
		if lo == hi && lo == last {
			if stable++; stable >= 3 {
				return true
			}
		} else {
			stable, last = 0, hi
		}
		time.Sleep(50 * time.Millisecond)
	}
	return false
}

// fsNote names the filesystem under the data directory. fsync on a memory
// filesystem costs nothing, so disk numbers taken there show nothing.
func fsNote(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "filesystem unknown: " + err.Error()
	}
	const tmpfs, ramfs = 0x01021994, 0x858458f6
	switch uint32(st.Type) {
	case tmpfs, ramfs:
		return fmt.Sprintf("memory filesystem (type %#x): fsync costs are UNSHOWN on this host", uint32(st.Type))
	}
	return fmt.Sprintf("filesystem type %#x", uint32(st.Type))
}

// verifyWorkers is what fabric.Config.VerifyWorkers = 0 resolves to, by the
// rule its documentation states: GOMAXPROCS divided across the replicas one
// fabric hosts, capped at 8, and serial (reported as 0) below 2. The fabric
// does not expose the value, so the benchmark restates the documented rule.
func verifyWorkers(w *workload) float64 {
	hosted := 1 // one fabric per replica over TCP
	if !w.tcp {
		hosted = w.clusters * replicasPer
	}
	per := min(runtime.GOMAXPROCS(0)/hosted, 8)
	if per < 2 {
		return 0
	}
	return float64(per)
}

// print writes the run for a reader: every metric by name and unit, then the
// sample counts, host record and any violated guard.
func (r *report) print() {
	mode := "untraced: end-to-end metrics"
	if r.opts.trace {
		mode = "traced: per-layer metrics (end-to-end shown for reference only)"
	}
	fmt.Printf("== %s (%s)\n", r.workload.name, mode)
	for _, m := range endToEnd {
		fmt.Printf("  %-40s %14.4f %s\n", m.name, r.e2e[m.name], m.unit)
	}
	if r.layer != nil {
		for _, m := range perLayer {
			fmt.Printf("  %-40s %14.4f %s\n", m.name, r.layer[m.name], m.unit)
		}
	}
	fmt.Printf("  attempted %d failed %d (failed_frac %.6f)\n", r.attempts, r.failed, float64(r.failed)/float64(max(r.attempts, 1)))
	for _, n := range r.notes {
		fmt.Println("  " + n)
	}
	for _, s := range r.invalid {
		fmt.Println("  INVALID RUN: " + s)
	}
	for _, s := range r.gateErrs {
		fmt.Println("  CORRECTNESS VIOLATION: " + s)
	}
}

// result cuts the report down to the driver's line: the end-to-end metrics of
// an untraced run, the per-layer metrics of a traced one.
func (r *report) result() result {
	out := result{Correct: len(r.gateErrs) == 0, Attempted: r.attempts, Failed: r.failed, Metrics: map[string]value{}}
	defs, vals := endToEnd, r.e2e
	if r.opts.trace {
		defs, vals = perLayer, r.layer
	}
	for _, m := range defs {
		out.Metrics[m.name] = value{Value: vals[m.name], Unit: m.unit}
	}
	return out
}
