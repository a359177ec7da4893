// Package resilientdb is a from-scratch Go reproduction of ResilientDB, the
// geo-scale resilient blockchain fabric of Gupta, Rahnama, Hellings and
// Sadoghi (PVLDB 13(6), 2020), built around the GeoBFT consensus protocol.
//
// Two entry points are provided:
//
//   - Open starts a real-time fabric from a cluster spec (Options):
//     clusters of replicas running the paper's multi-threaded pipelined
//     architecture (Figure 9) on goroutines, connected by an in-process
//     transport, or with OpenRole one replica or client of a deployment
//     whose processes meet over TCP. Clients submit transaction batches and
//     wait for f+1 matching confirmations from their local cluster; every
//     replica maintains the append-only ledger.
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

// Options is a deployment: the cluster spec of internal/config, the only
// place a deployment knob is declared. A spec file is the same struct in
// JSON, so Open(Options{Clusters: 2, ReplicasPerCluster: 4}) and a file
// holding {"clusters": 2, "replicas_per_cluster": 4} start the same
// deployment. Zero fields select the defaults (config.Default*, and the
// internal/mempool defaults for Mempool).
type Options = config.ClusterSpec

// Duration is the type of the spec's timeouts (Options.LocalTimeout,
// Options.RemoteTimeout): a time.Duration that reads and writes JSON as
// "500ms".
type Duration = config.Duration

// Role is what this process runs of a deployment: the inputs of OpenRole
// that are not deployment knobs, and so are not in the spec. The zero Role
// runs the whole deployment in this process.
type Role struct {
	// Kind selects the whole deployment in-process, or one member of a
	// multi-process deployment over TCP.
	Kind RoleKind
	// Index is the hosted replica's global index (cluster*n + local index)
	// for ReplicaProcess, or the client index for ClientProcess. The
	// process listens at that entry's address in Options.Replicas or
	// Options.Clients, and a replica whose entry has an "rpc" address
	// serves the HTTP/JSON front door (internal/rpc) there.
	Index int
	// Adversary, when non-empty, compromises one hosted replica with the
	// named scripted attack from the byzantine harness (internal/byzantine;
	// see byzantine.ScriptByName for the names: "equivocate",
	// "forge-shares", "forge-votes", "vc-spam", "tamper-catchup",
	// "tamper-snapshots", "suppress"): replica (0,0) in-process, the hosted
	// replica of a ReplicaProcess. The script is armed from startup. The
	// deployment must tolerate it — f ≥ 1 per cluster — and with exactly
	// one adversary it always does: commits continue, honest ledgers agree,
	// and forged traffic lands in Stats as verify-rejects.
	Adversary string
}

// RoleKind is the shape of a Role.
type RoleKind int

// The roles a process can play in a deployment.
const (
	// InProcess hosts every replica in this process, over an in-memory
	// transport; the spec's address book is not used.
	InProcess RoleKind = iota
	// ReplicaProcess hosts one replica and joins the others over TCP with
	// MAC-authenticated framing: every frame's claimed sender is verified
	// against the pairwise key it implies, so a connected socket cannot
	// impersonate another replica.
	ReplicaProcess
	// ClientProcess hosts no replica: it runs client Index, whose replies
	// reach it at Options.Clients[Index].
	ClientProcess
)

// DB is a running ResilientDB deployment (or, under a ReplicaProcess or
// ClientProcess role, one process's slice of one).
type DB struct {
	fab     *fabric.Fabric
	topo    config.Topology
	clients int
	tcp     *transport.TCP
	rpc     *rpc.Server
}

// Open starts the whole deployment o in this process.
func Open(o Options) (*DB, error) { return OpenRole(o, Role{}) }

// OpenRole starts this process's part of deployment o: all of it, or the
// replica or client r names, joined to the other processes over TCP.
func OpenRole(o Options, r Role) (*DB, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	cfg := fabricConfig(&o)
	db := &DB{topo: cfg.Topo, clients: cfg.Clients}
	var rpcListen string
	if r.Kind != InProcess {
		listen, rpcAddr, local, err := member(&o, r)
		if err != nil {
			return nil, err
		}
		// Authenticated framing is not optional on the real wire: without it
		// any connected socket could claim any replica's identity in the
		// frame header (the spoofable-`from` hole). Keys are pairwise,
		// derived from the same deterministic provisioning as the signing
		// keys, so every process of the deployment agrees. The peers know
		// this address already, so it is set before the first accept.
		tcp, err := transport.NewAuthTCP(listen, addressBook(&o), crypto.NewFrameMAC(cfg.Mode))
		if err != nil {
			return nil, err
		}
		cfg.Transport, cfg.Local = tcp, local
		db.tcp, rpcListen = tcp, rpcAddr
	}
	if r.Adversary != "" {
		if err := attachAdversary(&cfg, r.Adversary); err != nil {
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
	if rpcListen != "" {
		srv := rpc.NewServer(fab.Node(cfg.Local[0]), cfg.Topo)
		if _, err := srv.Start(rpcListen); err != nil {
			fab.Stop()
			return nil, err
		}
		db.rpc = srv
	}
	return db, nil
}

// fabricConfig is the one translation of a deployment's knobs into the
// runtime's input: each spec key lands in one fabric.Config field, and the
// fabric applies the defaults.
func fabricConfig(o *Options) fabric.Config {
	topo := o.Topology()
	cfg := fabric.Config{
		Topo:             topo,
		LocalTimeout:     o.LocalTimeout.Std(),
		RemoteTimeout:    o.RemoteTimeout.Std(),
		DataDir:          o.Retention.DataDir,
		DiskSegmentBytes: o.Retention.SegmentBytes,
		SnapshotInterval: o.Retention.SnapshotInterval,
		RetainSegments:   o.Retention.RetainSegments,
		Clients:          o.ProvisionedClients(),
		Mempool:          o.Mempool,
	}
	if o.EmulateWAN {
		prof := config.GoogleCloudProfile(o.Clusters)
		cfg.Latency = func(from, to types.NodeID) time.Duration {
			return prof.OneWay(regionOf(topo, from, o.Clusters), regionOf(topo, to, o.Clusters))
		}
	}
	return cfg
}

// member resolves a joining process's place in the spec: the address it
// listens on, its RPC front door's address (a replica's "rpc" entry), and
// the replicas it hosts.
func member(o *Options, r Role) (listen, rpcListen string, local []types.NodeID, err error) {
	if err := o.CheckAddressBook(); err != nil {
		return "", "", nil, err
	}
	switch r.Kind {
	case ReplicaProcess:
		if r.Index < 0 || r.Index >= len(o.Replicas) {
			return "", "", nil, fmt.Errorf("resilientdb: the spec places %d replicas, replica %d is not one of them", len(o.Replicas), r.Index)
		}
		rs := o.Replicas[r.Index]
		return rs.Listen, rs.RPC, []types.NodeID{types.NodeID(r.Index)}, nil
	case ClientProcess:
		// Validate bounds len(Clients) by the provisioned identities, so an
		// index with an address also has a key. Without an address replicas
		// would drop every reply and each Submit would run to its timeout.
		if r.Index < 0 || r.Index >= len(o.Clients) {
			return "", "", nil, fmt.Errorf("resilientdb: the spec lists %d client addresses, client %d is not one of them", len(o.Clients), r.Index)
		}
		return o.Clients[r.Index], "", []types.NodeID{}, nil
	}
	return "", "", nil, fmt.Errorf("resilientdb: unknown role kind %d", r.Kind)
}

// addressBook maps a node to the address the spec gives it ("" if none).
func addressBook(o *Options) func(types.NodeID) string {
	return func(id types.NodeID) string {
		if id.IsClient() {
			if i := int(id - types.ClientIDBase); i < len(o.Clients) {
				return o.Clients[i]
			}
			return ""
		}
		if i := int(id); i >= 0 && i < len(o.Replicas) {
			return o.Replicas[i].Listen
		}
		return ""
	}
}

// attachAdversary compromises one hosted replica with the named byzantine
// script (Role.Adversary), wrapping the deployment's transport in the
// fleet's interception tap. The script is armed immediately.
func attachAdversary(cfg *fabric.Config, name string) error {
	target := cfg.Topo.ReplicaID(0, 0)
	if cfg.Local != nil {
		if len(cfg.Local) == 0 {
			return fmt.Errorf("resilientdb: an adversary needs a hosted replica (client processes cannot run one)")
		}
		target = cfg.Local[0]
	}
	script, err := byzantine.ScriptByName(name, cfg.Topo, target)
	if err != nil {
		return err
	}
	fleet := byzantine.NewFleet(1)
	fleet.Adversary(cfg.Topo, cfg.Mode, target, script).Arm()
	inner := cfg.Transport
	if inner == nil {
		// The fabric would build its own Mem transport; build it here instead
		// so the tap can wrap it.
		inner = transport.NewMem()
	}
	cfg.Transport = transport.NewTap(inner, fleet.Intercept)
	return nil
}

// ListenAddr returns this process's bound TCP address in a multi-process
// deployment ("" for in-process deployments). Useful with a ":0" address in
// the spec.
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

// Client opens client number i, homed in cluster i mod z. Only the
// provisioned identities [0, Options.ProvisionedClients()) have keys; the
// Client of any other index fails every Submit.
func (db *DB) Client(i int) *Client {
	if i < 0 || i >= db.clients {
		return &Client{err: fmt.Errorf("resilientdb: client %d outside the %d provisioned identities", i, db.clients)}
	}
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
// when its spec entry has no "rpc" address. Useful with an "rpc" of ":0".
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
	err   error // why there is no inner client
}

// Submit sends one batch and blocks until f+1 local replicas confirm
// execution, or timeout.
func (c *Client) Submit(txns []Transaction, timeout time.Duration) error {
	if c.inner == nil {
		return c.err
	}
	return c.inner.Submit(txns, timeout)
}

// Close stops the client.
func (c *Client) Close() {
	if c.inner != nil {
		c.inner.Close()
	}
}

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
