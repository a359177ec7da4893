package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"resilientdb/internal/metrics"
)

// perLayer is the layer table: each metric is named <package>.<metric>, and
// the comment says which end-to-end metric it should move, on which workload.
// Traced runs fill it; it carries no regression bound.
var perLayer = []metricDef{
	// Traced in-situ spans of sampled latency-phase requests. The four tile the
	// request, so their p50s add up to about commit_p50_ms.
	{"fabric.admit_to_propose_ms_p50", "ms", "lower"}, // → commit_p50_ms on mem-sat/tcp-loop; txn_per_s when the worker queue is the wait
	{"fabric.admit_to_propose_ms_p99", "ms", "lower"},
	{"pbft.local_commit_ms_p50", "ms", "lower"}, // → commit_p50_ms on mem-sat/tcp-loop; unchanged share on wan-geo
	{"pbft.local_commit_ms_p99", "ms", "lower"},
	{"core.global_order_wait_ms_p50", "ms", "lower"}, // → commit_p50_ms on wan-geo (floor: injected delay) and durable-rw (fsync); near zero on mem-sat
	{"core.global_order_wait_ms_p99", "ms", "lower"},
	{"fabric.exec_to_reply_ms_p50", "ms", "lower"}, // → commit_p95_ms everywhere
	{"fabric.exec_to_reply_ms_p99", "ms", "lower"},

	// Counts at the transport boundary, per confirmed client batch (the paper's Table 2 split).
	{"transport.msgs_local_per_batch", "count", "lower"}, // → cpu_ms_per_batch, txn_per_s on tcp-loop/wan-geo
	{"transport.msgs_global_per_batch", "count", "lower"},
	{"transport.bytes_local_per_batch", "B", "lower"},
	{"transport.bytes_global_per_batch", "B", "lower"},

	// Losses: expected 0; non-zero explains a txn_per_s dip.
	{"transport.drops_mailbox", "count", "lower"},
	{"transport.drops_send_queue", "count", "lower"},
	{"fabric.drops_out_queue", "count", "lower"},
	{"fabric.verify_rejects", "count", "lower"},
	{"transport.auth_rejects", "count", "lower"},

	// Admission. → failed frac, commit_p95_ms
	{"mempool.admitted", "count", "higher"},
	{"mempool.duplicate_frac", "frac", "lower"},
	{"mempool.rate_limited", "count", "lower"},
	{"fabric.mempool_len_max", "count", "lower"},

	{"pbft.view_changes", "count", "lower"},         // any makes the run invalid
	{"core.noop_batch_frac", "frac", "lower"},       // no-op ÷ executed batches: consensus work spent on empty rounds → cpu_ms_per_batch
	{"core.rounds_in_flight_p99", "count", "lower"}, // proposed − executed round, against the default depth 48 → txn_per_s on wan-geo
	{"core.catchup_blocks", "count", "lower"},       // expected 0
	{"ledger.disk_bytes_per_batch", "B", "lower"},   // → txn_per_s on durable-rw
	{"ledger.height_skew_max", "count", "lower"},    // lead − lag replica height: follower lag → read_p99_ms on durable-rw

	// Reads (durable-rw only; 0 elsewhere).
	{"rpc.read_p50_ms", "ms", "lower"}, // latency phase, due time → verified proof in hand
	{"rpc.read_p99_ms", "ms", "lower"},
	{"rpc.read_sat_p50_ms", "ms", "lower"}, // same reads while writes saturate: does a write gain starve them?
	{"rpc.read_failed_frac", "frac", "lower"},
	{"fabric.proven_read_ms_p50", "ms", "lower"}, // Node.ProvenRead called directly → rpc.read_p50_ms
	{"rpc.read_overhead_ms_p50", "ms", "lower"},  // rpc.read_p50_ms − fabric.proven_read_ms_p50: HTTP and JSON

	{"fabric.verify_workers", "count", "higher"},    // what auto-sizing chose (0 = serial)
	{"gen.pacer_late_ms_p99", "ms", "lower"},        // generator health: how late the open loop sent (0 where the latency phase is a closed loop)
	{"gen.failed_frac", "frac", "lower"},            // failed, timed out or refused ÷ attempted, both phases
	{"gen.traced_commit_p50_ms", "ms", "lower"},     // this traced run's own commit p50, the number the span p50s must add up to
	{"gen.commit_p99_ms", "ms", "lower"},            // the median 1 s window's p99, as commit_p95_ms is its p95: too unsteady to carry a bound
	{"gen.commit_p99_whole_ms", "ms", "lower"},      // p99 over the whole latency phase: a stall shows here
	{"gen.commit_max_ms", "ms", "lower"},            // the slowest latency-phase request
	{"gen.traced_txn_per_s", "1/s", "higher"},       // 1 − this ÷ the untraced txn_per_s is what observing costs
	{"gen.latency_cpu_ms_per_batch", "ms", "lower"}, // process CPU ÷ batches of the latency phase: idle processors on wan-geo make it unsteady, so cpu_ms_per_batch is the saturate phase's

	// Layer probes: isolated calls, median over probeCalls.
	{"types.encode_preprepare_us", "us", "lower"}, // types.* → cpu_ms_per_batch, txn_per_s on tcp-loop only
	{"types.decode_preprepare_us", "us", "lower"},
	{"types.decode_globalshare_us", "us", "lower"},
	{"types.decode_globalshare_allocs", "count", "lower"},
	{"crypto.sign_us", "us", "lower"}, // → every workload's cpu_ms_per_batch; txn_per_s on mem-sat
	{"crypto.verify_us", "us", "lower"},
	{"crypto.framemac_tag_us_per_kb", "us", "lower"}, // → tcp-loop, not mem-sat
	{"crypto.framemac_verify_us_per_kb", "us", "lower"},
	{"pbft.preverify_commit_us", "us", "lower"}, // → txn_per_s on mem-sat
	{"pbft.cert_verify_us", "us", "lower"},
	{"core.preverify_globalshare_us", "us", "lower"},
	{"mempool.precheck_us", "us", "lower"}, // → fabric.admit_to_propose_ms
	{"mempool.admit_us", "us", "lower"},
	{"kvstore.apply_batch_us", "us", "lower"}, // → core.global_order_wait_ms
	{"ledger.append_certified_us", "us", "lower"},
	{"ledger.disk_append_fsync_us", "us", "lower"}, // → txn_per_s, commit_p50_ms on durable-rw only
	{"ledger.disk_append_group_us", "us", "lower"},
	{"kvstore.serialize_ms_100k", "ms", "lower"}, // snapshots: no workload turns them on
	{"snapshot.build_ms_100k", "ms", "lower"},
	{"core.inline_round_us", "us", "lower"},            // one full round of bare core.Replicas on one goroutine
	{"core.inline_msgs_per_round", "count", "lower"},   // repeats exactly
	{"fabric.pipeline_overhead_frac", "frac", "lower"}, // 1 − inline round ÷ this workload's saturated CPU per round: what the goroutine pipeline adds → txn_per_s on mem-sat
}

// sampler polls the gauges no counter captures, every samplePeriod, for as
// long as a traced run drives load.
type sampler struct {
	quit chan struct{}
	wg   sync.WaitGroup

	mempoolMax int
	skewMax    uint64
	inFlight   []float64 // per tick: the furthest any cluster's proposals ran ahead of its primary's execution
}

const samplePeriod = 10 * time.Millisecond

func startSampler(d *deployment, tr *tracer) *sampler {
	s := &sampler{quit: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(samplePeriod)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-tick.C:
			}
			lo, hi := d.nodes[0].Height(), d.nodes[0].Height()
			for _, n := range d.nodes {
				s.mempoolMax = max(s.mempoolMax, n.MempoolLen())
				h := n.Height()
				lo, hi = min(lo, h), max(hi, h)
			}
			s.skewMax = max(s.skewMax, hi-lo)
			ahead := 0.0
			for c := 0; c < d.w.clusters; c++ {
				proposed := tr.proposed[c].Load()
				if executed := d.nodes[d.topo.ReplicaID(c, 0)].ExecutedRound(); proposed > executed {
					ahead = max(ahead, float64(proposed-executed))
				}
			}
			s.inFlight = append(s.inFlight, ahead)
		}
	}()
	return s
}

func (s *sampler) stop() {
	close(s.quit)
	s.wg.Wait()
}

// layerInputs are the numbers the phases hand to the layer table.
type layerInputs struct {
	commit, lateness   []float64 // latency phase, sorted, ms
	windowP99          float64
	latCPU, satCPU     time.Duration
	satRounds          uint64
	satTxnPerS         float64
	latReads, satReads readResult
}

// fillLayers computes every per-layer metric of a traced run.
func (r *report) fillLayers(d *deployment, tr *tracer, sm *sampler, g *gate, st metrics.DropStats, in layerInputs) error {
	l := r.layer

	// Spans of the latency phase: latency on the critical path, as commit_p50_ms is.
	spans := tr.completeSpans("latency")
	for i, name := range spanNames {
		durs := make([]float64, len(spans))
		for j, s := range spans {
			durs[j] = s.Children[i].durUS() / 1000
		}
		sort.Float64s(durs)
		l[name+"_ms_p50"] = percentile(durs, 50)
		l[name+"_ms_p99"] = percentile(durs, 99)
	}
	r.notes = append(r.notes, fmt.Sprintf("spans: %d sampled latency-phase requests fully observed", len(spans)))

	batches := float64(max(tr.execBatches.Load(), 1))
	msgs, bytes := tr.wireStats()
	l["transport.msgs_local_per_batch"] = msgs[0] / batches
	l["transport.msgs_global_per_batch"] = msgs[1] / batches
	l["transport.bytes_local_per_batch"] = bytes[0] / batches
	l["transport.bytes_global_per_batch"] = bytes[1] / batches

	l["transport.drops_mailbox"] = float64(st.Mailbox)
	l["transport.drops_send_queue"] = float64(st.SendQueue)
	l["fabric.drops_out_queue"] = float64(st.OutQ)
	l["fabric.verify_rejects"] = float64(st.VerifyReject)
	l["transport.auth_rejects"] = float64(st.AuthReject)

	mp := st.Mempool
	l["mempool.admitted"] = float64(mp.Admitted)
	if seen := mp.Admitted + mp.Duplicate + mp.Replayed + mp.RateLimited; seen > 0 {
		l["mempool.duplicate_frac"] = float64(mp.Duplicate+mp.Replayed) / float64(seen)
	}
	l["mempool.rate_limited"] = float64(mp.RateLimited)
	l["fabric.mempool_len_max"] = float64(sm.mempoolMax)

	l["pbft.view_changes"] = float64(g.viewChanges)
	l["core.noop_batch_frac"] = float64(tr.noopBatches.Load()) / float64(max(tr.noopBatches.Load()+tr.execBatches.Load(), 1))
	sort.Float64s(sm.inFlight)
	l["core.rounds_in_flight_p99"] = percentile(sm.inFlight, 99)
	l["core.catchup_blocks"] = float64(g.catchup)
	l["ledger.disk_bytes_per_batch"] = float64(st.Snapshots.DiskBytes) / float64(len(d.nodes)) / batches
	l["ledger.height_skew_max"] = float64(sm.skewMax)

	if d.w.durable {
		beside, sat := sortedMS(in.latReads.latency), sortedMS(in.satReads.latency)
		direct := sortedMS(in.latReads.direct)
		l["rpc.read_p50_ms"] = percentile(beside, 50)
		l["rpc.read_p99_ms"] = percentile(beside, 99)
		l["rpc.read_sat_p50_ms"] = percentile(sat, 50)
		l["rpc.read_failed_frac"] = float64(in.latReads.failed+in.satReads.failed) / float64(max(in.latReads.attempted+in.satReads.attempted, 1))
		l["fabric.proven_read_ms_p50"] = percentile(direct, 50)
		l["rpc.read_overhead_ms_p50"] = l["rpc.read_p50_ms"] - l["fabric.proven_read_ms_p50"]
		r.notes = append(r.notes, fmt.Sprintf("reads: %d in the latency phase, %d under saturation, %d direct", len(beside), len(sat), len(direct)))
	}

	l["fabric.verify_workers"] = verifyWorkers(d.w)
	l["gen.pacer_late_ms_p99"] = percentile(in.lateness, 99)
	l["gen.failed_frac"] = float64(r.failed) / float64(max(r.attempts, 1))
	l["gen.traced_commit_p50_ms"] = percentile(in.commit, 50)
	l["gen.commit_p99_ms"] = in.windowP99
	l["gen.commit_p99_whole_ms"] = percentile(in.commit, 99)
	l["gen.commit_max_ms"] = percentile(in.commit, 100)
	l["gen.traced_txn_per_s"] = in.satTxnPerS
	if len(in.commit) > 0 {
		l["gen.latency_cpu_ms_per_batch"] = ms(in.latCPU) / float64(len(in.commit))
	}

	probes, err := runProbes(d.topo, tr, r.opts.seed, r.opts.dataRoot)
	if err != nil {
		return err
	}
	for name, v := range probes {
		l[name] = v
	}
	if in.satRounds > 0 {
		perRound := us(in.satCPU) / float64(in.satRounds)
		l["fabric.pipeline_overhead_frac"] = 1 - l["core.inline_round_us"]/perRound
	}
	return nil
}
