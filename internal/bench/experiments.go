package bench

import (
	"fmt"
	"io"
	"time"

	"resilientdb/internal/config"
	"resilientdb/internal/detsim"
	"resilientdb/internal/proto"
	"resilientdb/internal/types"
)

// Experiment drivers: one per table/figure of the paper's evaluation.
// Each returns machine-readable results and can print the rows the paper
// reports. Absolute numbers are simulator-scale; the shapes (orderings,
// factors, crossovers) are the reproduction target — see README.md, "What
// the reproduction shows".

// ---------------------------------------------------------------- Table 1

// Table1Row is one probe measurement between two regions.
type Table1Row struct {
	From, To      config.Region
	RTT           time.Duration
	PaperRTTms    float64
	BandwidthMbit float64
	PaperMbit     float64
}

type pingMsg struct{ t0 time.Duration }

func (*pingMsg) MsgType() string { return "probe/ping" }
func (*pingMsg) WireSize() int   { return 100 }

type pongMsg struct{ t0 time.Duration }

func (*pongMsg) MsgType() string { return "probe/pong" }
func (*pongMsg) WireSize() int   { return 100 }

type bulkMsg struct{}

func (*bulkMsg) MsgType() string { return "probe/bulk" }
func (*bulkMsg) WireSize() int   { return 1 << 20 }

type prober struct {
	env   proto.Env
	rtt   *time.Duration
	got   *int
	first *time.Duration
	last  *time.Duration
}

func (p *prober) InitEnv(env proto.Env) { p.env = env }
func (p *prober) Receive(from types.NodeID, msg types.Message) {
	switch m := msg.(type) {
	case *pingMsg:
		p.env.Send(from, &pongMsg{t0: m.t0})
	case *pongMsg:
		if p.rtt != nil {
			*p.rtt = p.env.Now() - m.t0
		}
	case *bulkMsg:
		if *p.got == 0 {
			*p.first = p.env.Now()
		}
		*p.got++
		*p.last = p.env.Now()
	}
}

// Table1 measures ping round-trip times and sustained bandwidth between
// every pair of the six regions in the simulator, validating its
// calibration against the paper's Table 1.
func Table1() []Table1Row {
	var rows []Table1Row
	for a := config.Oregon; a < config.NumRegions; a++ {
		for b := a; b < config.NumRegions; b++ {
			net := detsim.New(detsim.Options{
				Profile:    config.GoogleCloudProfile(int(config.NumRegions)),
				Seed:       1,
				JitterFrac: -1,
			})
			var rtt time.Duration
			var got int
			var first, last time.Duration
			pa := &prober{rtt: &rtt, got: &got, first: &first, last: &last}
			pb := &prober{rtt: &rtt, got: &got, first: &first, last: &last}
			net.AddNode(0, int(a), pa)
			net.AddNode(1, int(b), pb)
			net.Start()
			// Ping.
			net.At(0, 0, func() { pa.env.Send(1, &pingMsg{t0: 0}) })
			net.RunUntil(5 * time.Second)
			// Bulk: 64 MiB in 1 MiB messages, measure delivery rate.
			const nBulk = 64
			net.At(net.Now(), 0, func() {
				for i := 0; i < nBulk; i++ {
					pa.env.Send(1, &bulkMsg{})
				}
			})
			net.RunUntil(net.Now() + 120*time.Second)
			mbit := 0.0
			if got == nBulk && last > first {
				bytes := float64(nBulk-1) * (1 << 20) // rate between first and last arrival
				mbit = bytes * 8 / (last - first).Seconds() / 1e6
			}
			rows = append(rows, Table1Row{
				From: a, To: b, RTT: rtt,
				PaperRTTms:    config.RTTMillis(a, b),
				BandwidthMbit: mbit,
				PaperMbit:     config.BandwidthMbit(a, b),
			})
		}
	}
	return rows
}

// PrintTable1 renders Table 1 rows.
func PrintTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintf(w, "Table 1: inter-region RTT and bandwidth (simulated vs paper)\n")
	fmt.Fprintf(w, "%-10s %-10s %12s %12s %14s %12s\n",
		"from", "to", "rtt(ms)", "paper(ms)", "bw(Mbit/s)", "paper")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-10s %12.1f %12.1f %14.0f %12.0f\n",
			r.From, r.To, float64(r.RTT.Microseconds())/1000, r.PaperRTTms,
			r.BandwidthMbit, r.PaperMbit)
	}
}

// ---------------------------------------------------------------- Table 2

// Table2Row reports the measured per-decision message counts of one
// protocol next to the paper's closed-form complexity.
type Table2Row struct {
	Protocol      Protocol
	LocalPerDec   float64
	GlobalPerDec  float64
	FormulaLocal  string
	FormulaGlobal string
	Centralized   string
}

// Table2 measures normal-case message complexity per consensus decision at
// z=4 clusters of n=7 replicas (f=2), averaged over a steady-state run.
func Table2() []Table2Row {
	z, n := 4, 7
	formulas := map[Protocol][3]string{
		GeoBFT: {"O(2zn^2)", "O(fz^2)", "no"},
		PBFT:   {"O(2(zn)^2)", "", "yes"},
	}
	var rows []Table2Row
	for _, p := range AllProtocols {
		res := Run(Scenario{
			Protocol: p, Clusters: z, PerCluster: n, BatchSize: 100,
			Outstanding: 64, Warmup: 2 * time.Second, Measure: 4 * time.Second,
		})
		var local, global float64
		if res.Batches > 0 {
			local = float64(res.Messages.LocalMsgs) / float64(res.Batches)
			global = float64(res.Messages.GlobalMsgs) / float64(res.Batches)
		}
		fm := formulas[p]
		rows = append(rows, Table2Row{
			Protocol: p, LocalPerDec: local, GlobalPerDec: global,
			FormulaLocal: fm[0], FormulaGlobal: fm[1], Centralized: fm[2],
		})
	}
	return rows
}

// PrintTable2 renders Table 2 rows.
func PrintTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintf(w, "Table 2: measured messages per consensus decision (z=4, n=7, batch=100)\n")
	fmt.Fprintf(w, "%-10s %14s %14s %14s %12s %14s\n",
		"protocol", "local/dec", "global/dec", "formula-local", "formula-glob", "centralized")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %14.1f %14.1f %14s %12s %14s\n",
			r.Protocol, r.LocalPerDec, r.GlobalPerDec, r.FormulaLocal, r.FormulaGlobal, r.Centralized)
	}
}

// ---------------------------------------------------------------- Figures

// FigureRow is one (x, protocol) data point of a throughput/latency figure.
type FigureRow struct {
	X          int
	Protocol   Protocol
	Throughput float64
	LatencyAvg time.Duration
	LatencyP50 time.Duration
}

// Figure10 sweeps the number of clusters 1..6 with zn=60 replicas total
// (paper Section 4.1).
func Figure10(protocols []Protocol, seed int64) []FigureRow {
	var rows []FigureRow
	for z := 1; z <= 6; z++ {
		n := 60 / z
		for _, p := range protocols {
			res := Run(Scenario{Protocol: p, Clusters: z, PerCluster: n, Seed: seed})
			rows = append(rows, row(z, p, res))
		}
	}
	return rows
}

// Figure11 sweeps replicas per cluster with z=4 (paper Section 4.2).
func Figure11(protocols []Protocol, seed int64) []FigureRow {
	var rows []FigureRow
	for _, n := range []int{4, 7, 10, 12, 15} {
		for _, p := range protocols {
			res := Run(Scenario{Protocol: p, Clusters: 4, PerCluster: n, Seed: seed})
			rows = append(rows, row(n, p, res))
		}
	}
	return rows
}

// Figure12Single measures throughput with one non-primary replica failure
// (paper Section 4.3, left).
func Figure12Single(protocols []Protocol, seed int64) []FigureRow {
	var rows []FigureRow
	for _, n := range []int{4, 7, 10, 12} {
		for _, p := range protocols {
			res := Run(Scenario{Protocol: p, Clusters: 4, PerCluster: n,
				CrashBackups: 1, Seed: seed})
			rows = append(rows, row(n, p, res))
		}
	}
	return rows
}

// Figure12F measures throughput with f non-primary failures per cluster
// (paper Section 4.3, middle).
func Figure12F(protocols []Protocol, seed int64) []FigureRow {
	var rows []FigureRow
	for _, n := range []int{4, 7, 10, 12} {
		f := (n - 1) / 3
		for _, p := range protocols {
			res := Run(Scenario{Protocol: p, Clusters: 4, PerCluster: n,
				CrashBackups: f, Seed: seed})
			rows = append(rows, row(n, p, res))
		}
	}
	return rows
}

// Figure12Primary measures throughput under a single primary failure after
// 900 transactions, with checkpoints every 600 (paper Section 4.3, right).
// Only GeoBFT and PBFT participate, as in the paper.
func Figure12Primary(seed int64) []FigureRow {
	var rows []FigureRow
	for _, n := range []int{4, 7, 10, 12} {
		for _, p := range []Protocol{GeoBFT, PBFT} {
			res := Run(Scenario{Protocol: p, Clusters: 4, PerCluster: n,
				CrashPrimary: true, CrashAfterTxns: 900, CheckpointTxns: 600,
				Measure: 10 * time.Second, Seed: seed})
			rows = append(rows, row(n, p, res))
		}
	}
	return rows
}

// Figure13 sweeps the batch size at z=4, n=7 (paper Section 4.4).
func Figure13(protocols []Protocol, seed int64) []FigureRow {
	var rows []FigureRow
	for _, bs := range []int{10, 50, 100, 200, 300} {
		for _, p := range protocols {
			res := Run(Scenario{Protocol: p, Clusters: 4, PerCluster: 7,
				BatchSize: bs, Seed: seed})
			rows = append(rows, row(bs, p, res))
		}
	}
	return rows
}

func row(x int, p Protocol, res Result) FigureRow {
	return FigureRow{
		X: x, Protocol: p,
		Throughput: res.Throughput,
		LatencyAvg: res.Latency.Avg,
		LatencyP50: res.Latency.P50,
	}
}

// PrintFigure renders figure rows as a table grouped by x value.
func PrintFigure(w io.Writer, title, xlabel string, rows []FigureRow) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-8s %-10s %16s %14s %14s\n",
		xlabel, "protocol", "tput(txn/s)", "lat-avg(s)", "lat-p50(s)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8d %-10s %16.0f %14.3f %14.3f\n",
			r.X, r.Protocol, r.Throughput, r.LatencyAvg.Seconds(), r.LatencyP50.Seconds())
	}
}
