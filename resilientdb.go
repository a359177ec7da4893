// Package resilientdb is a from-scratch Go reproduction of ResilientDB, the
// geo-scale resilient blockchain fabric of Gupta, Rahnama, Hellings and
// Sadoghi (PVLDB 13(6), 2020), built around the GeoBFT consensus protocol.
//
// Two entry points are provided:
//
//   - Open starts a real-time fabric: clusters of replicas running the
//     paper's multi-threaded pipelined architecture (Figure 9) on
//     goroutines, connected by an in-process transport. Clients submit
//     transaction batches and wait for f+1 matching confirmations from
//     their local cluster; every replica maintains the append-only ledger.
//
//   - Simulate runs a GeoBFT or PBFT experiment on the deterministic
//     discrete-event WAN simulator calibrated against the paper's Table 1
//     measurements (package internal/bench, cmd/resbench, and the benchmarks
//     in bench_test.go). Its numbers are model outputs, not measurements.
package resilientdb

import (
	"fmt"
	"time"

	"resilientdb/internal/bench"
	"resilientdb/internal/byzantine"
	"resilientdb/internal/config"
	"resilientdb/internal/core"
	"resilientdb/internal/crypto"
	"resilientdb/internal/fabric"
	"resilientdb/internal/ledger"
	"resilientdb/internal/mempool"
	"resilientdb/internal/metrics"
	"resilientdb/internal/rpc"
	"resilientdb/internal/transport"
	"resilientdb/internal/types"
)

// Transaction is a YCSB-style write against the replicated table.
type Transaction = types.Transaction

// Block is one entry of a replica's ledger.
type Block = ledger.Block

// Ledger is a replica's append-only blockchain.
type Ledger = ledger.Ledger

// SnapshotStats counts checkpoint-snapshot and ledger-GC activity across the
// deployment's hosted replicas (the Snapshots field of Stats).
type SnapshotStats = metrics.SnapshotStats

// RoundStats counts what the executed global rounds carried — client batches
// vs the no-ops a cluster without load certifies — and what no-op pacing did
// (the Rounds field of Stats).
type RoundStats = metrics.RoundStats

// CryptoStats counts digital-signature work — ed25519 operations run, votes
// found badly signed when a proof was assembled, shows declined for want of a
// proof, and how other clusters' certificates forwarded inside a cluster were
// accepted: on f+1 matching forwards with no check, or verified by the holder
// after a grace (the Crypto field of Stats; divide by executed rounds for the
// cost of a round).
type CryptoStats = metrics.CryptoStats

// Options configures a fabric deployment.
type Options struct {
	// Clusters is the number of regions (z ≥ 1).
	Clusters int
	// ReplicasPerCluster is n per region (n ≥ 4; tolerates f = ⌊(n−1)/3⌋
	// Byzantine replicas per cluster).
	ReplicasPerCluster int
	// BatchSize groups client transactions per consensus decision
	// (default 100, as in the paper).
	BatchSize int
	// Records preloads the key-value table (default 1024 rows).
	Records int
	// EmulateWAN injects the paper's Table 1 inter-region latencies between
	// clusters (the deployment still runs in-process).
	EmulateWAN bool
	// LocalTimeout tunes local view-change failure detection (default 2 s;
	// lower it in tests that inject crashes).
	LocalTimeout time.Duration
	// RemoteTimeout is the base failure-detection timeout for remote
	// clusters (default 3 s; it backs off exponentially on repeat).
	RemoteTimeout time.Duration
	// VerifyWorkers sizes each replica's parallel verification pool (all
	// cryptographic checks run there, off the consensus thread). 0
	// auto-sizes: GOMAXPROCS divided across the replicas this process
	// hosts, capped at 8 per replica, falling back to serial inline
	// verification when a replica's share comes to less than 2 cores (a
	// single-CPU host, or an in-process deployment hosting more replicas
	// than cores). Negative disables the pool explicitly, and a positive
	// value forces that pool size; both serial modes verify inline on the
	// worker.
	VerifyWorkers int
	// DataDir, when non-empty, makes every replica hosted by this process
	// durable: each persists its certified blocks to a segmented
	// append-only block store under DataDir/node-<id> as they commit, and
	// a restarted process recovers the chain from those files alone —
	// torn tails from a crash mid-write are truncated, every commit
	// certificate is re-verified, and peers supply only the genuinely
	// missing suffix. Empty (the default) keeps ledgers in memory only.
	DataDir string
	// DiskSegmentBytes caps one block-store segment file (0: 4 MiB).
	// Ignored without DataDir.
	DiskSegmentBytes int64
	// DiskGroupCommit makes the block store acknowledge appends after the
	// OS write and fsync on a timer at this interval, so replies stop
	// waiting for the disk; it trades up to one interval of acknowledged
	// blocks on machine (not process) crash. 0, the default, fsyncs before
	// a batch is acknowledged — off the consensus worker, one fsync
	// covering every block committed during the previous one. Ignored
	// without DataDir.
	DiskGroupCommit time.Duration
	// SnapshotInterval, when non-zero, bounds each replica's history: every
	// N rounds the replica captures a content-addressed snapshot of its
	// executed key-value state, publishes it once the round is covered by a
	// stable checkpoint, and garbage-collects block-store segments wholly
	// below it. Fresh or far-behind replicas then bootstrap from a verified
	// peer snapshot plus the block suffix instead of replaying the whole
	// chain. 0 (the default) disables snapshots and keeps history
	// unbounded.
	SnapshotInterval uint64
	// RetainSegments is how many full block-store segments each replica
	// keeps below its last durable checkpoint when snapshot GC runs (0: 2).
	// More segments mean slightly-lagging peers catch up via blocks instead
	// of state transfer at the cost of disk. Ignored without DataDir and
	// SnapshotInterval.
	RetainSegments int
	// Clients is how many client identities the deployment provisions
	// signing keys for (DB.Client indices 0..Clients-1). 0 selects 64.
	// Every process of a multi-process deployment must agree on it: the
	// key directory is derived from it, and replicas reject requests from
	// unprovisioned identities.
	Clients int
	// MempoolCapacity caps each replica's pool of admitted-but-unexecuted
	// client requests; beyond it the oldest pending request is evicted
	// (clients simply retry — admission is idempotent). 0 selects 4096.
	MempoolCapacity int
	// ClientRate limits how many *new* requests per second one client
	// identity may get admitted (duplicates and replays are answered for
	// free). 0 selects 512/s; negative disables rate limiting.
	ClientRate float64
	// ClientBurst is the rate limiter's burst allowance (0: 512).
	ClientBurst int
	// ReplayWindow is how many executed requests per client each replica
	// remembers to answer retries from the certified ledger instead of
	// re-executing (0: 32).
	ReplayWindow int
	// Net, if non-nil, runs this process as one member of a multi-process
	// TCP deployment instead of a self-contained in-process fabric. The
	// TCP transport always runs with MAC-authenticated framing: every
	// frame's claimed sender is verified against the pairwise key it
	// implies, so a connected socket cannot impersonate another replica.
	Net *NetOptions
	// RPCListen, when non-empty, serves the HTTP/JSON client front door
	// (internal/rpc) for this process's first hosted replica on that
	// address ("host:port"; ":0" picks a port readable via DB.RPCAddr):
	// signed submits through the mempool admission path, status and
	// certificate-carrying block reads, and proof-carrying key reads.
	RPCListen string
	// Adversary, when non-empty, compromises one hosted replica with the
	// named scripted attack from the byzantine harness (internal/byzantine;
	// see byzantine.ScriptByName for the names: "equivocate",
	// "forge-shares", "forge-votes", "vc-spam", "tamper-catchup",
	// "tamper-snapshots", "suppress"). In-process
	// deployments compromise replica (0,0); multi-process deployments
	// compromise the first locally hosted replica. The script is armed from
	// startup. The deployment must tolerate it — f ≥ 1 per cluster — and
	// with exactly one adversary it always does: commits continue, honest
	// ledgers agree, and forged traffic lands in Stats as verify-rejects.
	Adversary string
}

// NetOptions describes one process's place in a multi-process deployment:
// every process runs the same topology with the same address book but hosts
// only its own replicas (and clients). Messages travel as length-prefixed
// wire-codec frames over TCP (see internal/transport).
type NetOptions struct {
	// Listen is this process's TCP listen address ("host:port"; ":0" picks
	// an ephemeral port readable via DB.ListenAddr).
	Listen string
	// Replicas is the address book for the z×n replicas: Replicas[i] is the
	// listen address of the process hosting global replica i (cluster*n +
	// local index). Must have exactly z×n entries.
	Replicas []string
	// Clients maps client index to the listen address of the process
	// hosting that client, so replicas can route replies. A process that
	// calls DB.Client(i) must list its own address at Clients[i].
	Clients []string
	// LocalReplicas are the global replica indices hosted by this process.
	// Empty means this process hosts no replicas (a pure client process).
	LocalReplicas []int
}

// DB is a running ResilientDB deployment (or, with Options.Net, one
// process's slice of one).
type DB struct {
	fab  *fabric.Fabric
	topo config.Topology
	tcp  *transport.TCP
	rpc  *rpc.Server
}

// Open starts a fabric deployment and returns a handle to it.
func Open(o Options) (*DB, error) {
	if o.Clusters < 1 {
		return nil, fmt.Errorf("resilientdb: need at least 1 cluster, got %d", o.Clusters)
	}
	if o.Clusters > int(config.NumRegions) {
		return nil, fmt.Errorf("resilientdb: at most %d clusters (regions), got %d", config.NumRegions, o.Clusters)
	}
	if o.ReplicasPerCluster < 4 {
		return nil, fmt.Errorf("resilientdb: need n ≥ 4 replicas per cluster, got %d", o.ReplicasPerCluster)
	}
	topo := config.NewTopology(o.Clusters, o.ReplicasPerCluster)
	cfg := fabric.Config{
		Topo:             topo,
		BatchSize:        o.BatchSize,
		Records:          o.Records,
		LocalTimeout:     o.LocalTimeout,
		RemoteTimeout:    o.RemoteTimeout,
		VerifyWorkers:    o.VerifyWorkers,
		DataDir:          o.DataDir,
		DiskSegmentBytes: o.DiskSegmentBytes,
		DiskGroupCommit:  o.DiskGroupCommit,
		SnapshotInterval: o.SnapshotInterval,
		RetainSegments:   o.RetainSegments,
		Clients:          o.Clients,
		Mempool: mempool.Config{
			Capacity:       o.MempoolCapacity,
			PerClientRate:  o.ClientRate,
			PerClientBurst: o.ClientBurst,
			ReplayWindow:   o.ReplayWindow,
		},
	}
	var latency func(from, to types.NodeID) time.Duration
	if o.EmulateWAN {
		prof := config.GoogleCloudProfile(o.Clusters)
		latency = func(from, to types.NodeID) time.Duration {
			ra, rb := regionOf(topo, from, o.Clusters), regionOf(topo, to, o.Clusters)
			return prof.OneWay(ra, rb)
		}
	}
	db := &DB{topo: topo}
	if o.Net != nil {
		if len(o.Net.Replicas) != topo.TotalReplicas() {
			return nil, fmt.Errorf("resilientdb: address book has %d replica addresses, topology needs %d",
				len(o.Net.Replicas), topo.TotalReplicas())
		}
		net := *o.Net
		book := func(id types.NodeID) string {
			if id.IsClient() {
				if i := int(id - types.ClientIDBase); i < len(net.Clients) {
					return net.Clients[i]
				}
				return ""
			}
			if i := int(id); i >= 0 && i < len(net.Replicas) {
				return net.Replicas[i]
			}
			return ""
		}
		tcp, err := transport.NewTCP(net.Listen, book)
		if err != nil {
			return nil, err
		}
		// Authenticated framing is not optional on the real wire: without it
		// any connected socket could claim any replica's identity in the
		// frame header (the spoofable-`from` hole). Keys are pairwise,
		// derived from the same deterministic provisioning as the signing
		// keys, so every process of the deployment agrees.
		tcp.Auth = crypto.NewFrameMAC(cfg.Mode)
		tcp.Latency = latency
		cfg.Transport = tcp
		cfg.Local = []types.NodeID{} // default: pure client process
		for _, i := range net.LocalReplicas {
			if i < 0 || i >= topo.TotalReplicas() {
				tcp.Close()
				return nil, fmt.Errorf("resilientdb: local replica index %d out of range [0,%d)", i, topo.TotalReplicas())
			}
			cfg.Local = append(cfg.Local, types.NodeID(i))
		}
		db.tcp = tcp
	} else {
		cfg.Latency = latency
	}
	if o.Adversary != "" {
		if err := attachAdversary(&cfg, o); err != nil {
			if db.tcp != nil {
				db.tcp.Close()
			}
			return nil, err
		}
	}
	fab, err := fabric.Open(cfg)
	if err != nil {
		if db.tcp != nil {
			db.tcp.Close()
		}
		return nil, err
	}
	db.fab = fab
	if o.RPCListen != "" {
		target := topo.ReplicaID(0, 0)
		if o.Net != nil {
			if len(cfg.Local) == 0 {
				fab.Stop()
				return nil, fmt.Errorf("resilientdb: RPCListen needs a hosted replica (client processes cannot serve RPC)")
			}
			target = cfg.Local[0]
		}
		srv := rpc.NewServer(fab.Node(target), topo)
		if _, err := srv.Start(o.RPCListen); err != nil {
			fab.Stop()
			return nil, err
		}
		db.rpc = srv
	}
	return db, nil
}

// attachAdversary compromises one hosted replica with the named byzantine
// script (Options.Adversary), wrapping the deployment's transport in the
// fleet's interception tap. The script is armed immediately.
func attachAdversary(cfg *fabric.Config, o Options) error {
	target := cfg.Topo.ReplicaID(0, 0)
	if o.Net != nil {
		if len(cfg.Local) == 0 {
			return fmt.Errorf("resilientdb: -adversary needs a hosted replica (client processes cannot run one)")
		}
		target = cfg.Local[0]
	}
	script, err := byzantine.ScriptByName(o.Adversary, cfg.Topo, target)
	if err != nil {
		return err
	}
	fleet := byzantine.NewFleet(1)
	fleet.Adversary(cfg.Topo, cfg.Mode, target, script).Arm()
	inner := cfg.Transport
	if inner == nil {
		// The fabric would build its own Mem transport; build it here instead
		// so the tap can wrap it (carrying over any injected latency).
		mem := transport.NewMem()
		mem.Latency = cfg.Latency
		cfg.Latency = nil
		inner = mem
	}
	cfg.Transport = transport.NewTap(inner, fleet.Intercept)
	return nil
}

// ListenAddr returns this process's bound TCP address in a multi-process
// deployment ("" for in-process deployments). Useful with Net.Listen ":0".
func (db *DB) ListenAddr() string {
	if db.tcp != nil {
		return db.tcp.Addr()
	}
	return ""
}

func regionOf(topo config.Topology, id types.NodeID, z int) int {
	if id.IsClient() {
		return int(id-types.ClientIDBase) % z
	}
	return int(topo.ClusterOf(id))
}

// Client opens client number i, homed in cluster i mod z.
func (db *DB) Client(i int) *Client {
	return &Client{inner: db.fab.NewClient(i)}
}

// ReplicaLedger returns the ledger of one replica, or nil if that replica
// is not hosted by this process. Read it after Close, or accept racing the
// replica's executor.
func (db *DB) ReplicaLedger(cluster, replica int) *Ledger {
	if r := db.fab.Replica(db.topo.ReplicaID(cluster, replica)); r != nil {
		return r.Ledger()
	}
	return nil
}

// Replica exposes a replica's consensus state machine (tests, tooling), or
// nil if that replica is not hosted by this process.
func (db *DB) Replica(cluster, replica int) *core.Replica {
	return db.fab.Replica(db.topo.ReplicaID(cluster, replica))
}

// CrashReplica fault-injects a crash of one replica.
func (db *DB) CrashReplica(cluster, replica int) {
	db.fab.Crash(db.topo.ReplicaID(cluster, replica))
}

// StopReplica halts one replica, like CrashReplica (machine crash: pipeline
// halts, traffic to it is dropped).
func (db *DB) StopReplica(cluster, replica int) {
	db.fab.StopNode(db.topo.ReplicaID(cluster, replica))
}

// StartReplica restarts a stopped replica. With keepLedger it bootstraps
// from the crashed replica's retained ledger (re-verified block by block);
// without it the replica restarts with amnesia. Either way it converges to
// the cluster's live height through ledger catch-up.
func (db *DB) StartReplica(cluster, replica int, keepLedger bool) error {
	return db.fab.StartNode(db.topo.ReplicaID(cluster, replica), keepLedger)
}

// Topology reports (z, n, f).
func (db *DB) Topology() (clusters, perCluster, f int) {
	return db.topo.Clusters, db.topo.PerCluster, db.topo.F()
}

// Stats returns a snapshot of the deployment's message-loss counters (full
// queues, codec failures, verify-stage rejections) with the admission,
// checkpoint/GC, round-filling and signature accounting alongside. Safe to
// call while the deployment is running.
func (db *DB) Stats() metrics.DropStats { return db.fab.Stats() }

// RPCAddr returns the bound address of this process's RPC front door, or ""
// when Options.RPCListen was not set. Useful with RPCListen ":0".
func (db *DB) RPCAddr() string {
	if db.rpc != nil {
		return db.rpc.Addr()
	}
	return ""
}

// Close shuts the deployment down.
func (db *DB) Close() {
	if db.rpc != nil {
		db.rpc.Close()
	}
	db.fab.Stop()
}

// Client submits transaction batches to its local cluster.
type Client struct {
	inner *fabric.Client
}

// Submit sends one batch and blocks until f+1 local replicas confirm
// execution, or timeout.
func (c *Client) Submit(txns []Transaction, timeout time.Duration) error {
	return c.inner.Submit(txns, timeout)
}

// Close stops the client.
func (c *Client) Close() { c.inner.Close() }

// Protocol names a consensus protocol available to Simulate.
type Protocol = bench.Protocol

// The protocols Simulate runs: GeoBFT and the PBFT baseline.
const (
	GeoBFT = bench.GeoBFT
	PBFT   = bench.PBFT
)

// Experiment configures a simulation run; see bench.Scenario for all knobs.
type Experiment = bench.Scenario

// Measurement is a simulation outcome.
type Measurement = bench.Result

// Simulate runs one experiment on the calibrated WAN simulator and returns
// its measurements. Runs are deterministic for a fixed seed.
func Simulate(e Experiment) Measurement { return bench.Run(e) }
