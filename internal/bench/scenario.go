// Package bench is the experiment harness that models the tables and figures
// of the ResilientDB paper's evaluation (Section 4) for GeoBFT and PBFT on the
// simulator; its outputs are model outputs, not measurements. A Scenario
// describes a deployment — protocol, topology, workload, batch size,
// failures — and Run wires it into the discrete-event WAN simulator
// calibrated against Table 1, drives it with closed-loop clients, and
// reports client-observed throughput and latency plus local/global traffic
// counters.
//
// The paper's experimental set-up is mirrored: replicas spread over up to
// six Google Cloud regions (Oregon, Iowa, Montreal, Belgium, Taiwan,
// Sydney, added in that order), YCSB write batches (batch size 100 unless
// stated), clients distributed across the regions in use, a warm-up phase
// followed by a measurement window, and checkpoints every 600 transactions.
package bench

import (
	"time"

	"resilientdb/internal/metrics"
)

// Protocol names a consensus protocol under evaluation.
type Protocol string

// The two protocols of the paper's evaluation that this harness runs. The
// paper's other three (Zyzzyva, HotStuff, Steward) are not reproduced.
const (
	GeoBFT Protocol = "geobft"
	PBFT   Protocol = "pbft"
)

// AllProtocols lists the protocols in the paper's plotting order.
var AllProtocols = []Protocol{GeoBFT, PBFT}

// Scenario is one experiment configuration.
type Scenario struct {
	Protocol   Protocol
	Clusters   int // z: number of regions in use
	PerCluster int // n: replicas per region
	BatchSize  int // transactions per consensus decision

	// ClientNodes is the number of client machines (the paper uses eight,
	// spread across the regions in use). Zero selects 8.
	ClientNodes int
	// Outstanding is the total number of batches in flight system-wide
	// (client concurrency). Zero selects 480.
	Outstanding int

	Warmup  time.Duration // zero → 1 s
	Measure time.Duration // zero → 3 s
	Seed    int64

	// CheckpointTxns is the checkpoint interval in transactions (paper:
	// 600). Zero selects 600.
	CheckpointTxns int

	// Failure injection.
	CrashBackups   int  // backups crashed per cluster at t=0
	CrashPrimary   bool // crash the Oregon primary mid-run
	CrashAfterTxns int  // ... after this many executed txns (paper: 900)

	// Ablations.
	Fanout          int  // GeoBFT inter-cluster fanout; 0 → f+1
	DisablePipeline bool // GeoBFT: one round at a time
}

func (s Scenario) withDefaults() Scenario {
	if s.ClientNodes == 0 {
		s.ClientNodes = 8
	}
	if s.Outstanding == 0 {
		s.Outstanding = 480
	}
	if s.Warmup == 0 {
		s.Warmup = time.Second
	}
	if s.Measure == 0 {
		s.Measure = 3 * time.Second
	}
	if s.BatchSize == 0 {
		s.BatchSize = 100
	}
	if s.CheckpointTxns == 0 {
		s.CheckpointTxns = 600
	}
	if s.CrashAfterTxns == 0 {
		s.CrashAfterTxns = 900
	}
	if s.Seed == 0 {
		s.Seed = 42
	}
	return s
}

// Result is the outcome of one scenario run.
type Result struct {
	Scenario   Scenario
	Throughput float64 // client-completed transactions per second
	Latency    metrics.LatencyStats
	Messages   metrics.MessageStats
	Batches    int64
	Events     int64
}
