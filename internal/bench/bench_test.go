package bench

import (
	"testing"
	"time"
)

func tiny(p Protocol) Scenario {
	return Scenario{
		Protocol: p, Clusters: 2, PerCluster: 4,
		Warmup: 300 * time.Millisecond, Measure: time.Second,
		Outstanding: 64,
	}
}

func TestRunAllProtocolsProduceThroughput(t *testing.T) {
	for _, p := range AllProtocols {
		res := Run(tiny(p))
		if res.Throughput <= 0 {
			t.Errorf("%s: zero throughput", p)
		}
		if res.Latency.Count == 0 {
			t.Errorf("%s: no latency samples", p)
		}
		if res.Messages.LocalMsgs == 0 {
			t.Errorf("%s: no local traffic recorded", p)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	a := Run(tiny(GeoBFT))
	b := Run(tiny(GeoBFT))
	if a.Throughput != b.Throughput || a.Events != b.Events {
		t.Errorf("same seed diverged: (%f, %d) vs (%f, %d)",
			a.Throughput, a.Events, b.Throughput, b.Events)
	}
	c := Run(Scenario{Protocol: GeoBFT, Clusters: 2, PerCluster: 4,
		Warmup: 300 * time.Millisecond, Measure: time.Second, Outstanding: 64, Seed: 99})
	if c.Events == a.Events {
		t.Log("different seeds produced identical event counts (possible but unlikely)")
	}
}

// TestModelGolden pins the model itself: the tiny scenarios' throughput,
// event count, global messages and batches as the deterministic simulator
// produced them when this test was written. TestRunDeterministic only
// compares two runs of one binary; a change to the event order, the link or
// CPU model, the client or the protocol's message pattern shows here. A
// change that moves the model on purpose updates these values and says so.
func TestModelGolden(t *testing.T) {
	// The crash-primary row runs the view change: a new primary adopting,
	// and backups re-forwarding, the requests they supervised. Its clients
	// send only the batches the crashed primary held to the whole cluster,
	// and later batches to the new primary the replies name.
	crash := tiny(GeoBFT)
	crash.Measure, crash.CrashPrimary = 3*time.Second, true
	for _, g := range []struct {
		name       string
		s          Scenario
		throughput float64
		events     int64
		globalMsgs int64
		batches    int64
	}{
		{"geobft", tiny(GeoBFT), 127800, 72174, 2544, 1278},
		{"pbft", tiny(PBFT), 69300, 122215, 53633, 693},
		{"geobft crash-primary", crash, 6533.333333333333, 12697, 390, 196},
	} {
		r := Run(g.s)
		if r.Throughput != g.throughput || r.Events != g.events || r.Messages.GlobalMsgs != g.globalMsgs || r.Batches != g.batches {
			t.Errorf("%s: (throughput, events, global msgs, batches) = (%v, %d, %d, %d), golden (%v, %d, %d, %d)",
				g.name, r.Throughput, r.Events, r.Messages.GlobalMsgs, r.Batches, g.throughput, g.events, g.globalMsgs, g.batches)
		}
	}
}

func TestGeoBFTBeatsPBFTAtScale(t *testing.T) {
	// The paper's headline: at several clusters, GeoBFT clearly outperforms
	// PBFT (Sections 4.1-4.4).
	geo := Run(Scenario{Protocol: GeoBFT, Clusters: 4, PerCluster: 7,
		Warmup: time.Second, Measure: 2 * time.Second})
	pbftRes := Run(Scenario{Protocol: PBFT, Clusters: 4, PerCluster: 7,
		Warmup: time.Second, Measure: 2 * time.Second})
	if geo.Throughput < 2*pbftRes.Throughput {
		t.Errorf("GeoBFT %.0f vs PBFT %.0f: expected ≥ 2×", geo.Throughput, pbftRes.Throughput)
	}
}

func TestFanoutAblationTrafficGrows(t *testing.T) {
	opt := Run(tiny(GeoBFT))
	all := Run(Scenario{Protocol: GeoBFT, Clusters: 2, PerCluster: 4,
		Warmup: 300 * time.Millisecond, Measure: time.Second, Outstanding: 64, Fanout: 4})
	perBatchOpt := float64(opt.Messages.GlobalMsgs) / float64(opt.Batches)
	perBatchAll := float64(all.Messages.GlobalMsgs) / float64(all.Batches)
	if perBatchAll <= perBatchOpt {
		t.Errorf("fanout n per-batch global msgs %.1f not above f+1's %.1f", perBatchAll, perBatchOpt)
	}
}

func TestTable1CalibratedWithinTolerance(t *testing.T) {
	rows := Table1()
	for _, r := range rows {
		gotMS := float64(r.RTT.Microseconds()) / 1000
		if r.From == r.To {
			if gotMS > 2 {
				t.Errorf("%v-%v RTT %.2f ms, want ≤ 1-2 ms", r.From, r.To, gotMS)
			}
			continue
		}
		// Within 15% of the paper's RTT (jitter disabled in the probe).
		if gotMS < r.PaperRTTms*0.85 || gotMS > r.PaperRTTms*1.15 {
			t.Errorf("%v-%v RTT %.1f ms, paper %.1f ms", r.From, r.To, gotMS, r.PaperRTTms)
		}
		// Bandwidth within 25% (uplink cap can shave the intra-region rate).
		want := r.PaperMbit
		if want > 1000 {
			want = 1000 // per-VM egress cap applies
		}
		if r.BandwidthMbit < want*0.7 || r.BandwidthMbit > want*1.3 {
			t.Errorf("%v-%v bandwidth %.0f Mbit/s, want ≈ %.0f", r.From, r.To, r.BandwidthMbit, want)
		}
	}
}
