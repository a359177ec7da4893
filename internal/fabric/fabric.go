// Package fabric is the real-time ResilientDB node runtime: the
// multi-threaded, pipelined architecture of the paper's Figure 9 built from
// goroutines and bounded channels. Each replica runs
//
//	input → worker → transport
//
// stages: a few input goroutines receive messages from the transport, and
// each runs the node's one admission step on what it receives — the mempool
// shed of client-request retries, every state-independent check
// (core.Replica.PreVerify: client request signatures, remote certificates,
// Rvc signatures, catch-up ranges, snapshot manifests, preprepare digests),
// and mempool admission of authenticated requests — before handing what
// passed to the worker, which owns the deterministic GeoBFT state machine
// (local replication, certification, ordering and execution) and runs no
// check twice (ReceiveVerified). The input goroutines deliver concurrently,
// so two messages on one link may reach the worker in either order, as on a
// reordering network. What the node sends goes straight to the transport,
// whose Send never blocks; the transport's own per-peer writers are Figure
// 9's output threads. Timers are real (time.AfterFunc) and re-enter the
// worker queue, so the protocol cores stay single-threaded and identical to
// the ones the simulator drives.
package fabric

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"resilientdb/internal/config"
	"resilientdb/internal/core"
	"resilientdb/internal/crypto"
	"resilientdb/internal/ledger"
	"resilientdb/internal/ledger/disk"
	"resilientdb/internal/mempool"
	"resilientdb/internal/metrics"
	"resilientdb/internal/pbft"
	"resilientdb/internal/proto"
	"resilientdb/internal/snapshot"
	"resilientdb/internal/transport"
	"resilientdb/internal/types"
)

// Config parameterizes a fabric deployment. It is the runtime's input, not a
// second place to declare deployment knobs: each knob the replicas read is
// one config.ClusterSpec key mapped onto one field here (resilientdb.Open
// does the mapping, emulate_wan becoming Latency; batch_size, which only the
// command-line client reads, maps onto none). The fields with no spec key
// (Records, Mode, OnExecute, Transport, Local) are what tests, the chaos
// harness and the benchmark set when they build a Config directly.
type Config struct {
	// Topo is the clustered deployment shape.
	Topo config.Topology
	// BatchSize is ignored: clients send signed batches of their own size.
	// It is kept because benchmark/workload.go sets it.
	BatchSize int
	// Records sizes the YCSB-style table.
	Records int
	// Mode selects real or fast cryptography (default Real: this is the
	// production path).
	Mode crypto.Mode
	// OnExecute, if set, observes every executed batch at every replica.
	OnExecute func(replica types.NodeID, round uint64, cluster types.ClusterID, batch types.Batch)
	// LocalTimeout is the local PBFT view-change timeout (core.Config);
	// 0 selects config.DefaultLocalTimeout.
	LocalTimeout time.Duration
	// RemoteTimeout is the base remote-cluster failure-detection timeout
	// (core.Config); 0 selects config.DefaultRemoteTimeout.
	RemoteTimeout time.Duration
	// Latency, if set, injects one-way delays between nodes (emulating a
	// geo-distributed deployment): Open wraps the transport the deployment
	// runs on, its own Mem or a provided one, in a transport.Faulty that
	// delays every send by Latency(from, to). Over TCP a delayed frame is
	// then encoded on the Faulty's timer goroutine, once the delay has
	// elapsed, not by the caller of Send.
	Latency func(from, to types.NodeID) time.Duration
	// Transport carries messages between nodes. Nil selects an in-process
	// Mem transport (every replica runs in this process); a transport.TCP
	// lets the deployment span separate OS processes. The fabric takes
	// ownership and closes it on Stop.
	Transport transport.Transport
	// Local restricts which replicas this process hosts (multi-process
	// deployments over TCP). Nil means all replicas run here.
	Local []types.NodeID
	// DataDir, when non-empty, makes every replica hosted by this process
	// durable: each gets a segmented append-only block store under
	// DataDir/node-<id> (internal/ledger/disk) fed by a persister goroutine —
	// the worker never waits for the disk; one fsync covers every block that
	// committed while the previous fsync was in flight; and a client is
	// answered only once the block holding its batch is fsynced on the
	// answering replica. A restarted node bootstraps from its on-disk prefix
	// — re-verified like an untrusted peer's chain — before catch-up fills
	// only the genuinely missing suffix. Empty keeps ledgers in memory only
	// (tests, benchmarks).
	DataDir string
	// DiskSegmentBytes caps one segment file of the block store; 0 selects
	// disk.DefaultSegmentBytes. Ignored without DataDir.
	DiskSegmentBytes int64
	// SnapshotInterval enables checkpoint snapshots every N global rounds:
	// each replica captures its executed state, publishes it once covered by
	// a stable local PBFT checkpoint, garbage-collects ledger disk segments
	// wholly below it (bounding storage), and serves it to fresh or
	// far-behind peers, which bootstrap from a verified snapshot plus a
	// short block suffix instead of replaying the whole chain. 0 disables
	// snapshots: history is retained forever.
	SnapshotInterval uint64
	// RetainSegments is the minimum number of ledger disk segments kept
	// through snapshot GC (the block suffix still served to catching-up
	// peers from disk). 0 selects config.DefaultRetainSegments. Ignored
	// without DataDir or SnapshotInterval.
	RetainSegments int
	// Clients is how many client identities the deployment provisions keys
	// for (NewClient indices 0..Clients-1). 0 selects
	// config.DefaultProvisionClients. Every process of a multi-process
	// deployment must agree on it, like the topology.
	Clients int
	// Mempool tunes each replica's client admission layer (dedup, replay
	// window, rate limiting, capacity); zero fields select the
	// internal/mempool defaults.
	Mempool mempool.Config
}

// Fabric is a running deployment: this process's replicas plus the shared
// transport.
type Fabric struct {
	cfg Config
	tr  transport.Transport
	dir *crypto.Directory
	// inputs is how many input goroutines each node runs (inputWorkers).
	inputs int

	mu      sync.Mutex // guards nodes and stopped (per-node restarts mutate the map)
	nodes   map[types.NodeID]*Node
	stopped bool
}

// New builds and starts a fabric deployment, like Open, for configurations
// that cannot fail: it panics on error, which only a disk-backed
// configuration (cfg.DataDir set) can produce. Disk-backed callers should
// use Open.
func New(cfg Config) *Fabric {
	f, err := Open(cfg)
	if err != nil {
		panic("fabric: " + err.Error())
	}
	return f
}

// Open builds and starts a fabric deployment (or, with cfg.Local set, this
// process's slice of one). With cfg.DataDir set, each hosted replica first
// recovers its persisted chain — torn tails truncated, every commit
// certificate re-verified — before joining the network.
func Open(cfg Config) (*Fabric, error) {
	if cfg.Records == 0 {
		cfg.Records = 1024
	}
	if cfg.LocalTimeout == 0 {
		cfg.LocalTimeout = config.DefaultLocalTimeout
	}
	if cfg.RemoteTimeout == 0 {
		cfg.RemoteTimeout = config.DefaultRemoteTimeout
	}
	if cfg.Clients == 0 {
		cfg.Clients = config.DefaultProvisionClients
	}
	if cfg.RetainSegments == 0 {
		cfg.RetainSegments = config.DefaultRetainSegments
	}
	tr := cfg.Transport
	if tr == nil {
		tr = transport.NewMem()
	}
	if cfg.Latency != nil {
		delayed := transport.NewFaulty(tr, 0)
		delayed.SetDelay(cfg.Latency)
		tr = delayed
	}
	local := cfg.Local
	if local == nil {
		local = cfg.Topo.AllReplicas()
	}
	f := &Fabric{cfg: cfg, tr: tr, nodes: make(map[types.NodeID]*Node),
		inputs: inputWorkers(runtime.GOMAXPROCS(0), len(local))}

	// Key material covers the whole topology regardless of which replicas
	// run here: it is derived deterministically per node, so every process
	// of a multi-process deployment provisions identical directories.
	f.dir = crypto.NewDirectory(cfg.Mode, append(cfg.Topo.AllReplicas(), clientIDs(cfg.Clients)...))
	// Two phases: create (and register) every node before starting any, so
	// no node's first sends can race a sibling's transport registration.
	boots := make(map[types.NodeID]func(r *core.Replica), len(local))
	for _, id := range local {
		n, err := newNode(f, id)
		if err != nil {
			for _, created := range f.nodes {
				created.stop()
			}
			tr.Close()
			return nil, err
		}
		boot, err := f.attachDisk(n)
		if err != nil {
			n.stop()
			for _, created := range f.nodes {
				created.stop()
			}
			tr.Close()
			return nil, err
		}
		f.nodes[id] = n
		boots[id] = boot
	}
	for _, id := range local {
		f.nodes[id].start(boots[id])
	}
	return f, nil
}

// inputWorkers sizes one node's input stage: the machine's cores divided
// across the replicas this process hosts, so an in-process z×n deployment
// does not spawn z×n×GOMAXPROCS input goroutines fighting over GOMAXPROCS
// cores. The floor of 2 is Figure 9's two input threads; the cap of 8 bounds
// contention on the inbox of a very wide host.
func inputWorkers(procs, hostedNodes int) int {
	return min(max(procs/max(hostedNodes, 1), 2), 8)
}

// nodeDir is one replica's slice of the deployment's data directory.
func (f *Fabric) nodeDir(id types.NodeID) string {
	return filepath.Join(f.cfg.DataDir, fmt.Sprintf("node-%d", int(id)))
}

// attachDisk opens a node's block store (when the deployment is disk-backed),
// recovers its persisted chain, and returns the boot closure that replays the
// chain into the fresh state machine on its worker. wipe discards any
// existing on-disk state first (an amnesia restart: the disk is gone).
//
// The boot closure first installs the newest archived checkpoint snapshot,
// if any — after a GC'd chain's crash the retained segments start above
// genesis, so only the snapshot can seat the prefix — verified like a peer's
// (a tampered archive is rejected and counted), then re-verifies the block
// suffix through the ordinary catch-up Import path (Bootstrap); a chain that
// fails re-verification is dropped from disk too — it could never be served
// to a peer — and counted as a verify rejection. The store attaches to the
// ledger — behind its persister, which from then on is the store's only
// writer — only after the bootstrap settles, aligned to exactly the accepted
// chain, so the disk is always a prefix of the chain from the first live
// append.
func (f *Fabric) attachDisk(n *Node) (func(r *core.Replica), error) {
	if f.cfg.DataDir == "" {
		return nil, nil
	}
	dir := f.nodeDir(n.id)
	st, blocks, err := disk.Open(dir, core.BlockCodec{}, disk.Options{SegmentBytes: f.cfg.DiskSegmentBytes})
	if err != nil {
		return nil, fmt.Errorf("fabric: node %v block store: %w", n.id, err)
	}
	n.store = st
	return func(r *core.Replica) {
		if n.archive != nil {
			if m, err := r.InstallArchivedSnapshot(n.archive); err != nil {
				// Tampered or corrupt archived snapshot: rejected like a
				// forged peer snapshot. If the segments were GC'd against it
				// they cannot seat either; the truncate below wipes them and
				// the node recovers over the network (snapshot sync included).
				n.drops.VerifyReject.Add(1)
			} else if m != nil {
				// The snapshot seats the prefix; only the suffix above its
				// anchor replays from the segments.
				for len(blocks) > 0 && blocks[0] != nil && blocks[0].Height <= m.Height {
					blocks = blocks[1:]
				}
			}
		}
		if err := r.Bootstrap(blocks); err != nil {
			// The persisted chain did not re-verify: surface it instead of
			// failing silently, drop it, and recover over the network.
			n.drops.VerifyReject.Add(1)
		}
		if h := r.Ledger().Height(); h < st.Height() {
			// Bootstrap accepted less than the store holds (round-boundary
			// trim, or a rejection above): cut the store back so the next
			// persisted block lands at the chain's true next height. A chain
			// rejected wholesale — including GC'd segments orphaned by an
			// unusable snapshot — truncates to zero, wiping the store.
			if err := st.Truncate(h); err != nil {
				// The node runs memory-only; StoreErr reports the gap
				// (the store itself closes with the node on stop).
				r.Ledger().NoteStoreFailure(err)
				return
			}
		} else if h > st.Height() {
			// The store lags the accepted chain (an archived snapshot ahead
			// of surviving segments): re-base it at the chain head; appends
			// continue from there and catch-up persists only new blocks.
			if err := st.Reanchor(h); err != nil {
				r.Ledger().NoteStoreFailure(err)
				return
			}
		}
		var backend ledger.Store = st
		if testWrapStore != nil {
			backend = testWrapStore(n.id, st)
		}
		r.Ledger().StartPersister(backend) // stopped in Node.stop
	}, nil
}

// testWrapStore, when set by a test in this package, interposes on the
// backend a node's persister writes to: to observe the moment each fsync
// returns, or to inject disk failures.
var testWrapStore func(id types.NodeID, st *disk.Store) ledger.Store

func clientIDs(n int) []types.NodeID {
	out := make([]types.NodeID, n)
	for i := range out {
		out[i] = config.ClientID(i)
	}
	return out
}

// Node returns the replica runtime for id.
func (f *Fabric) Node(id types.NodeID) *Node {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.nodes[id]
}

// Replica returns the GeoBFT state machine of a replica, or nil if the
// replica is not hosted by this process (read access should happen after
// Stop, or tolerate racing the worker). After StartNode the handle refers to
// the restarted replica; a handle obtained earlier keeps pointing at the
// pre-restart state machine, which is useful for reading a crashed node's
// final ledger.
func (f *Fabric) Replica(id types.NodeID) *core.Replica {
	if n := f.Node(id); n != nil {
		return n.replica
	}
	return nil
}

// Stop shuts down every node and the transport. It is idempotent and safe to
// call concurrently with per-node StopNode/StartNode: nodes stopped
// individually are simply stopped again (a no-op).
func (f *Fabric) Stop() {
	f.mu.Lock()
	if f.stopped {
		f.mu.Unlock()
		return
	}
	f.stopped = true
	nodes := make([]*Node, 0, len(f.nodes))
	for _, n := range f.nodes {
		nodes = append(nodes, n)
	}
	f.mu.Unlock()
	for _, n := range nodes {
		n.stop()
	}
	f.tr.Close()
}

// Crash fault-injects a replica: its pipeline halts and all traffic to it
// is silently dropped, like a crashed machine. Equivalent to StopNode.
func (f *Fabric) Crash(id types.NodeID) { f.StopNode(id) }

// StopNode halts one replica's pipeline and detaches its mailbox from the
// transport, modelling a machine crash: in-flight work is abandoned and all
// traffic to the node is dropped. The node's final state (ledger, store)
// stays readable through Replica. Idempotent; unknown ids are a no-op.
func (f *Fabric) StopNode(id types.NodeID) {
	f.mu.Lock()
	n := f.nodes[id]
	if n == nil {
		f.mu.Unlock()
		return
	}
	// Detach under the same lock StartNode registers under, so a concurrent
	// restart can neither double-register the id nor lose its fresh mailbox
	// to a late Unregister.
	if !n.detached {
		n.detached = true
		f.tr.Unregister(id)
	}
	f.mu.Unlock()
	n.stop()
}

// StartNode restarts a replica previously halted with StopNode, modelling a
// machine rejoining the cluster. With keepLedger the new replica bootstraps
// from the stopped replica's chain — read back from its on-disk block store
// when the deployment is disk-backed (Config.DataDir), otherwise handed over
// from the stopped replica's in-memory ledger — and re-verified as if it
// came from an untrusted peer: a chain that fails re-verification is
// discarded, counted as a verify rejection in Stats, and the node falls back
// to network recovery. Without keepLedger the replica starts from nothing
// (amnesia — on a disk-backed deployment its store directory is wiped, the
// disk is literally gone) and recovers the whole chain from its peers
// through ledger catch-up. Either way the replica converges to the live
// height via CatchUpReq/CatchUpResp.
func (f *Fabric) StartNode(id types.NodeID, keepLedger bool) error {
	f.mu.Lock()
	if f.stopped {
		f.mu.Unlock()
		return fmt.Errorf("fabric: deployment is stopped")
	}
	old := f.nodes[id]
	if old == nil {
		f.mu.Unlock()
		return fmt.Errorf("fabric: node %v not hosted here", id)
	}
	if !old.detached {
		f.mu.Unlock()
		return fmt.Errorf("fabric: node %v is still running", id)
	}
	f.mu.Unlock()
	// Let the halted pipeline drain fully before its successor starts, so a
	// stale worker cannot emit traffic concurrently with the reborn node.
	// This also closes the old node's block store, releasing its files for
	// the successor to reopen.
	old.stop()
	var blocks []*ledger.Block
	if keepLedger && f.cfg.DataDir == "" {
		blocks = old.replica.Ledger().Export(1, 0)
	}
	// An amnesia restart loses the disk — segments, base marker and snapshot
	// archive alike — before the successor opens any of them.
	var wipeErr error
	if f.cfg.DataDir != "" && !keepLedger {
		if err := os.RemoveAll(f.nodeDir(id)); err != nil {
			wipeErr = fmt.Errorf("fabric: wiping %s: %w", f.nodeDir(id), err)
		}
	}

	f.mu.Lock()
	if f.stopped {
		f.mu.Unlock()
		return fmt.Errorf("fabric: deployment is stopped")
	}
	if f.nodes[id] != old {
		f.mu.Unlock()
		return fmt.Errorf("fabric: node %v was restarted concurrently", id)
	}
	n, err := newNode(f, id) // re-registers id on the transport, under f.mu
	if err != nil {
		f.mu.Unlock()
		return err
	}
	f.nodes[id] = n
	f.mu.Unlock()

	var boot func(r *core.Replica)
	if wipeErr != nil {
		// The old disk state would not die: running the successor against it
		// would resurrect a chain an amnesia restart must not have. Run
		// disk-less; StoreErr reports the durability gap.
		boot = func(r *core.Replica) { r.Ledger().NoteStoreFailure(wipeErr) }
	} else if f.cfg.DataDir != "" {
		var err error
		if boot, err = f.attachDisk(n); err != nil {
			// Run disk-less rather than leave the id dead: the node is
			// already registered, and a refusal here would strand it. The
			// durability gap stays observable through Ledger.StoreErr.
			openErr := err
			boot = func(r *core.Replica) { r.Ledger().NoteStoreFailure(openErr) }
		}
	} else if keepLedger {
		boot = func(r *core.Replica) {
			if err := r.Bootstrap(blocks); err != nil {
				// The preserved chain did not re-verify: surface it instead
				// of failing silently, and recover over the network.
				n.drops.VerifyReject.Add(1)
			}
		}
	}
	n.start(boot)
	return nil
}

// Stats returns a snapshot of the deployment's loss counters — transport-
// level drops (full mailboxes, full send queues, codec failures) plus this
// process's per-node verify rejections — and the aggregated mempool
// admission counters (admitted, duplicate, replayed, rate-limited, evicted),
// checkpoint/GC counters and round-filling counters (client vs no-op batches
// executed, no-op pacing) and signature counters (ed25519 operations run,
// badly signed votes found, shows declined) of every hosted replica. Safe to
// call while the fabric is running.
func (f *Fabric) Stats() metrics.DropStats {
	st := f.tr.Stats()
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, n := range f.nodes {
		st.Add(n.drops.Snapshot())
		st.Mempool.Add(n.pool.Stats())
		st.Snapshots.Add(n.SnapshotStats())
		st.Rounds.Add(n.replica.RoundStats())
		st.Crypto.Add(n.CryptoStats())
	}
	return st
}

// Node is one replica's runtime: the Figure 9 pipeline around a GeoBFT
// state machine.
type Node struct {
	fab     *Fabric
	id      types.NodeID
	replica *core.Replica
	env     *nodeEnv

	inbox <-chan transport.Envelope
	workQ chan func()

	pool  *mempool.Pool
	drops metrics.Drops

	// store is the node's durable block store (nil without Config.DataDir).
	// The node owns it and the persister that writes to it: opened before
	// start, attached on the worker at boot, and in stop — after the pipeline
	// has drained — the persister writes out its queue and exits, then the
	// store closes, so no append can race the close and a clean stop leaves
	// the whole chain on disk.
	store *disk.Store
	// archive is the node's durable snapshot store (nil unless both
	// Config.DataDir and Config.SnapshotInterval are set).
	archive *snapshot.Archive

	// snapshot/GC accounting (atomic: Stats reads them while the node runs)
	segsReclaimed  atomic.Uint64 // disk segments GC'd below checkpoints
	bytesReclaimed atomic.Uint64 // their total size

	// detached marks the node unregistered from the transport (guarded by
	// the owning Fabric's mu; see StopNode/StartNode).
	detached bool

	quit     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// archiveRetain is how many checkpoint snapshots each node's archive keeps.
const archiveRetain = 2

func newNode(f *Fabric, id types.NodeID) (*Node, error) {
	var arch *snapshot.Archive
	if f.cfg.DataDir != "" && f.cfg.SnapshotInterval > 0 {
		var err error
		arch, err = snapshot.OpenArchive(filepath.Join(f.nodeDir(id), "snapshots"), archiveRetain)
		if err != nil {
			return nil, fmt.Errorf("fabric: node %v snapshot archive: %w", id, err)
		}
	}
	n := &Node{
		fab:     f,
		id:      id,
		inbox:   f.tr.Register(id),
		workQ:   make(chan func(), 8192),
		archive: arch,
		quit:    make(chan struct{}),
	}
	n.env = &nodeEnv{node: n, start: time.Now()}
	n.env.suite = crypto.NewSuite(f.dir, id, crypto.FreeCosts(), nil)
	n.env.rng = rand.New(rand.NewSource(int64(id) + 1))
	n.pool = mempool.New(f.cfg.Mempool)
	ccfg := core.Config{
		Topo:          f.cfg.Topo,
		Self:          id,
		Records:       f.cfg.Records,
		LocalTimeout:  f.cfg.LocalTimeout,
		RemoteTimeout: f.cfg.RemoteTimeout,
		// Forged messages the worker's stateful checks reject land in the
		// same counter as the input stage's rejections: nothing vanishes
		// uncounted.
		OnVerifyReject:   func() { n.drops.VerifyReject.Add(1) },
		SnapshotInterval: f.cfg.SnapshotInterval,
		Archive:          arch,
		// A published (durably archived) snapshot is the license to discard
		// history: reclaim every disk segment wholly below it, always keeping
		// RetainSegments so slightly-lagging peers still catch up from disk.
		OnSnapshot: func(m *snapshot.Manifest) {
			if n.store == nil {
				return
			}
			// Queued behind every block executed so far and run by the
			// persister, the store's one writer: the reclaim's marker and
			// directory fsyncs stay off the worker too.
			l := n.replica.Ledger()
			l.AfterDurable(func() {
				segs, bytes, err := n.store.ReclaimBelow(m.Height, f.cfg.RetainSegments)
				if err != nil {
					// GC failure never loses data — the segments just
					// survive; the DiskBytes gauge surfaces unbounded growth.
					return
				}
				n.segsReclaimed.Add(uint64(segs))
				n.bytesReclaimed.Add(uint64(bytes))
			})
			l.Handoff()
		},
	}
	// Every execution feeds the mempool's replay window, so a retry of an
	// already-executed request is answered from the ledger instead of
	// re-entering consensus; the user hook (if any) rides along.
	// The window's answer is an acknowledgement like the reply itself — the
	// admission step serves "executed" from it, to the transport and the RPC
	// front door alike — so on a disk-backed node the outcome enters the
	// window only once its block is durable; until then a retry classifies as
	// a duplicate of pending work and the held reply answers it.
	hook := f.cfg.OnExecute
	ccfg.OnExecute = func(round uint64, cluster types.ClusterID, batch types.Batch) {
		if !batch.NoOp {
			client, seq, digest, txns := batch.Client, batch.Seq, batch.Digest(), batch.Len()
			if l := n.replica.Ledger(); l.Persisting() {
				l.AfterDurable(func() { n.pool.MarkExecuted(client, seq, digest, txns) })
			} else {
				n.pool.MarkExecuted(client, seq, digest, txns)
			}
		}
		if hook != nil {
			hook(id, round, cluster, batch)
		}
	}
	n.replica = core.NewReplica(ccfg)
	return n, nil
}

// start launches the node's pipeline. boot, if non-nil, runs on the worker
// right after InitEnv and before any inbound message — StartNode uses it to
// replay a preserved ledger into the fresh state machine.
func (n *Node) start(boot func(r *core.Replica)) {
	n.post(func() { n.replica.InitEnv(n.env) })
	if boot != nil {
		n.post(func() { boot(n.replica) })
	}

	// Worker: owns the state machine; the single consumer of workQ.
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		for {
			select {
			case fn := <-n.workQ:
				fn()
			case <-n.quit:
				return
			}
		}
	}()

	// Input threads: each runs the admission step on what it receives.
	for i := 0; i < n.fab.inputs; i++ {
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			for {
				select {
				case env, ok := <-n.inbox:
					if !ok {
						return
					}
					n.receive(env.From, env.Msg)
				case <-n.quit:
					return
				}
			}
		}()
	}
}

// receive is what an input thread does with one inbound message: the
// admission step, and for a retry of executed work the re-reply the paper's
// retrying client needs to converge, answered from the replay window instead
// of re-entering consensus.
func (n *Node) receive(from types.NodeID, msg types.Message) {
	verdict, exec, _ := n.admit(from, msg)
	if verdict == mempool.Replayed && exec != nil {
		client := msg.(*pbft.Request).Batch.Client
		n.env.Send(client, &proto.Reply{
			Client:    client,
			ClientSeq: exec.Seq,
			Replica:   n.id,
			TxnCount:  exec.TxnCount,
			Result:    exec.Digest,
		})
	}
}

// admit is the node's one admission step, run by the input threads on every
// inbound message and by SubmitRequest on front-door requests. A client
// request first meets mempool.Precheck, which decides retries of pending or
// executed work without a signature check: that keeps a retry storm from
// starving consensus traffic of verification capacity. What it leaves
// undecided meets PreVerify, which counts and drops a forged message
// (ErrBadSignature). An authenticated client request then meets
// mempool.Admit — dedup, replay window, rate limit — which must come after
// the signature check: admission writes per-client state, and only
// authentication keeps a spoofed Client field from poisoning another
// client's dedup window. What passes goes to the worker's ReceiveVerified
// with the verdict Admitted; for a request the verdict, and the replay
// window's record when it is Replayed, say what else happened to it.
func (n *Node) admit(from types.NodeID, msg types.Message) (mempool.Verdict, *mempool.Executed, error) {
	req, isReq := msg.(*pbft.Request)
	var digest types.Digest
	if isReq {
		b := &req.Batch
		digest = b.Digest()
		if verdict, exec, decided := n.pool.Precheck(b.Client, b.Seq, digest); decided {
			return verdict, exec, nil
		}
	}
	if n.replica.PreVerify(n.env.suite, from, msg) == proto.VerdictReject {
		n.drops.VerifyReject.Add(1)
		return 0, nil, ErrBadSignature
	}
	if isReq {
		if verdict, exec := n.pool.Admit(req.Batch.Client, req.Batch.Seq, digest); verdict != mempool.Admitted {
			return verdict, exec, nil
		}
	}
	n.post(func() { n.replica.ReceiveVerified(from, msg) })
	return mempool.Admitted, nil, nil
}

// MempoolLen returns the node's count of pending (admitted, not yet
// executed) client requests — the quantity bounded by Config.Mempool's
// capacity.
func (n *Node) MempoolLen() int { return n.pool.Len() }

// MempoolStats returns a snapshot of the node's admission counters.
func (n *Node) MempoolStats() metrics.MempoolStats { return n.pool.Stats() }

// CryptoStats returns the node's digital-signature counters: every Sign and
// Verify its suite ran (on any of its goroutines), the votes its proofs found
// badly signed, and the shows it declined. Safe to call while the node is
// running.
func (n *Node) CryptoStats() metrics.CryptoStats {
	var s metrics.CryptoStats
	s.Signs, s.Verifies = n.env.suite.Ops()
	s.BadVoteSigs, s.Unprovable = n.replica.ProofStats()
	s.SharesVouched, s.SharesSelfVerified = n.replica.ShareStats()
	return s
}

// SnapshotStats returns the node's checkpoint/GC counters: replica-level
// snapshot activity and rejections of tampered snapshot material, segment GC
// totals, the store's current on-disk size, and whether the ledger has
// detached from its store after a persistence failure. Safe to call while the
// node is running.
func (n *Node) SnapshotStats() metrics.SnapshotStats {
	s := metrics.SnapshotStats{
		Written:           n.replica.SnapshotsWritten(),
		Served:            n.replica.SnapshotsServed(),
		Installed:         n.replica.SnapshotsInstalled(),
		Rejected:          n.replica.SnapshotsRejected(),
		SegmentsReclaimed: n.segsReclaimed.Load(),
		BytesReclaimed:    n.bytesReclaimed.Load(),
	}
	l := n.replica.Ledger()
	if n.store != nil {
		s.DiskBytes = uint64(n.store.Bytes())
		s.DiskSyncs, s.DiskSyncedBlocks = n.store.SyncStats()
		s.PersistQueue = uint64(l.PersistQueue())
	}
	if l.StoreErr() != nil {
		s.StoreErrs = 1
	} else if l.Persisting() {
		// Height is read second, so a block that lands in between can only
		// make the lag look larger, never negative.
		if d, h := l.DurableHeight(), l.Height(); h > d {
			s.DurableLag = h - d
		}
	}
	return s
}

// stop halts the pipeline and returns once every goroutine of the node has
// exited; concurrent and repeated calls wait for the first to finish.
func (n *Node) stop() {
	n.stopOnce.Do(func() {
		close(n.quit)
		n.wg.Wait()
		// The worker is gone, so nothing feeds the persister any more: let
		// it write out what is queued (releasing the replies held on it) and
		// exit.
		n.replica.Ledger().StopPersister()
		if n.store != nil {
			n.store.Close()
		}
	})
}

func (n *Node) post(fn func()) {
	select {
	case n.workQ <- fn:
	case <-n.quit:
	}
}

// nodeEnv adapts the pipeline to proto.Env for the state machine.
type nodeEnv struct {
	node  *Node
	suite *crypto.Suite
	rng   *rand.Rand
	start time.Time
}

// ID implements proto.Env.
func (e *nodeEnv) ID() types.NodeID { return e.node.id }

// Now implements proto.Env.
func (e *nodeEnv) Now() time.Duration { return time.Since(e.start) }

// Send implements proto.Env: the worker, the input goroutines (replay
// re-replies) and the persister (held replies) hand a message straight to
// the transport, whose Send never blocks — a full mailbox or per-peer queue
// drops it, counted in the transport's Stats.
func (e *nodeEnv) Send(to types.NodeID, m types.Message) { e.node.fab.tr.Send(e.node.id, to, m) }

// SetTimer implements proto.Env with a real timer that re-enters the worker
// queue.
func (e *nodeEnv) SetTimer(d time.Duration, fn func()) proto.Timer {
	var stopped sync.Once
	done := make(chan struct{})
	t := time.AfterFunc(d, func() {
		select {
		case <-done:
		default:
			e.node.post(fn)
		}
	})
	return &realTimer{t: t, stop: func() { stopped.Do(func() { close(done) }) }}
}

type realTimer struct {
	t    *time.Timer
	stop func()
}

func (r *realTimer) Stop() {
	r.stop()
	r.t.Stop()
}

// Suite implements proto.Env.
func (e *nodeEnv) Suite() *crypto.Suite { return e.suite }

// Rand implements proto.Env.
func (e *nodeEnv) Rand() *rand.Rand { return e.rng }
