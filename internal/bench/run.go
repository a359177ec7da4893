package bench

import (
	"fmt"
	"time"

	"resilientdb/internal/config"
	"resilientdb/internal/core"
	"resilientdb/internal/crypto"
	"resilientdb/internal/detsim"
	"resilientdb/internal/metrics"
	"resilientdb/internal/pbft"
	"resilientdb/internal/types"
)

// BenchCosts is the CPU cost model every experiment runs on, and the only
// cost table outside tests. It is the paper's hardware profile (Crypto++ on
// 8-core Skylake, a pipelined but per-stage sequential implementation), not
// a measurement of the host the model runs on: signature work dominates,
// and every sent or received message pays a fixed marshalling + MAC cost.
func BenchCosts() crypto.Costs {
	return crypto.Costs{
		Sign:      50 * time.Microsecond,
		Verify:    150 * time.Microsecond,
		MAC:       15 * time.Microsecond,
		VerifyMAC: 15 * time.Microsecond,
		HashPerKB: 3 * time.Microsecond,
		ExecTxn:   2 * time.Microsecond,
	}
}

// Run executes one scenario and returns its measurements.
func Run(s Scenario) Result {
	s = s.withDefaults()
	topo := config.NewTopology(s.Clusters, s.PerCluster)
	prof := config.GoogleCloudProfile(s.Clusters)
	net := detsim.New(detsim.Options{
		Profile: prof,
		Seed:    s.Seed,
		Mode:    crypto.Fast,
		Costs:   BenchCosts(),
		// Wider delivery spread than the default: quorum waits then feel
		// the loss of fast spare replicas, the effect behind the moderate
		// throughput reduction under f failures (Section 4.3).
		JitterFrac: 0.25,
	})
	collector := metrics.NewCollector(s.Warmup, s.Warmup+s.Measure)
	net.TraceSend = func(_, _ types.NodeID, _ types.Message, size int, sameRegion bool) {
		if now := net.Now(); now >= s.Warmup && now < s.Warmup+s.Measure {
			collector.RecordSend(sameRegion, size)
		}
	}

	b := build(s, topo, net)
	for i := 0; i < s.ClientNodes; i++ { // spread round-robin over the regions in use
		cluster := i % s.Clusters
		net.AddNode(config.ClientID(i), cluster, &detsim.Client{
			Group:      b.group(cluster),
			Window:     max(s.Outstanding/s.ClientNodes, 1),
			BatchSize:  s.BatchSize,
			OnComplete: collector.RecordCompletion,
		})
	}

	// Crash backups at time zero (highest local indices; never the primary
	// or site representative at local index 0).
	for c := 0; c < s.Clusters; c++ {
		for k := 0; k < s.CrashBackups && k < s.PerCluster-1; k++ {
			net.Crash(topo.ReplicaID(c, s.PerCluster-1-k))
		}
	}

	net.Start()

	// Primary crash after the configured number of executed transactions
	// (paper Section 4.3: 900), detected by polling a surviving replica.
	if s.CrashPrimary {
		var poll func()
		crashed := false
		poll = func() {
			if !crashed && b.watchExec() >= uint64(s.CrashAfterTxns) {
				crashed = true
				net.Crash(b.primary)
				return
			}
			if !crashed {
				net.At(net.Now()+20*time.Millisecond, b.primary, poll)
			}
		}
		net.At(0, b.primary, poll)
	}

	net.RunUntil(s.Warmup + s.Measure)

	return Result{
		Scenario:   s,
		Throughput: collector.Throughput(s.Warmup + s.Measure),
		Latency:    collector.Latency(),
		Messages:   collector.Messages(),
		Batches:    collector.Batches(),
		Events:     net.Events(),
	}
}

// built carries protocol-specific hooks out of the wiring step.
type built struct {
	primary   types.NodeID
	group     func(cluster int) []types.NodeID // a client's replica group
	watchExec func() uint64
}

func build(s Scenario, topo config.Topology, net *detsim.Network) built {
	checkpointBatches := uint64(s.CheckpointTxns / s.BatchSize)
	if checkpointBatches == 0 {
		checkpointBatches = 1
	}

	switch s.Protocol {
	case GeoBFT:
		reps := make(map[types.NodeID]*core.Replica)
		for c := 0; c < s.Clusters; c++ {
			for i := 0; i < s.PerCluster; i++ {
				id := topo.ReplicaID(c, i)
				rep := core.NewReplica(core.Config{
					Topo: topo, Self: id, Records: detsim.Records,
					CheckpointInterval: checkpointBatches,
					Fanout:             s.Fanout,
					PipelineDepth:      pipelineDepth(s),
					ClientCluster: func(cl types.NodeID) int {
						return int(cl-types.ClientIDBase) % s.Clusters
					},
				})
				reps[id] = rep
				net.AddNode(id, c, rep)
			}
		}
		watch := reps[topo.ReplicaID(0, 1)]
		return built{
			primary:   topo.ReplicaID(0, 0),
			group:     topo.ClusterMembers,
			watchExec: func() uint64 { return watch.ExecutedTxns() },
		}

	case PBFT:
		members := topo.AllReplicas()
		f := (len(members) - 1) / 3
		reps := make(map[types.NodeID]*pbft.Standalone)
		for c := 0; c < s.Clusters; c++ {
			for i := 0; i < s.PerCluster; i++ {
				id := topo.ReplicaID(c, i)
				rep := pbft.NewStandalone(pbft.Config{
					Members: members, Self: id, F: f,
					CheckpointInterval: checkpointBatches,
					HighWaterMark:      64,
				}, detsim.Records)
				reps[id] = rep
				net.AddNode(id, c, rep)
			}
		}
		watch := reps[topo.ReplicaID(0, 1)]
		return built{
			primary:   members[0], // in Oregon (Section 4)
			group:     func(int) []types.NodeID { return members },
			watchExec: func() uint64 { return watch.Store().Applied() },
		}
	}
	panic(fmt.Sprintf("bench: unknown protocol %q", s.Protocol))
}

func pipelineDepth(s Scenario) int {
	if s.DisablePipeline {
		return -1
	}
	return 0 // default
}
