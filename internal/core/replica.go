package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"resilientdb/internal/config"
	"resilientdb/internal/kvstore"
	"resilientdb/internal/ledger"
	"resilientdb/internal/metrics"
	"resilientdb/internal/pbft"
	"resilientdb/internal/proto"
	"resilientdb/internal/snapshot"
	"resilientdb/internal/types"
)

// Config parameterizes one GeoBFT replica.
type Config struct {
	// Topo describes the clustered deployment (z clusters of n replicas).
	Topo config.Topology
	// Self is this replica's identifier; its cluster follows from Topo.
	Self types.NodeID
	// Records sizes the preloaded YCSB table.
	Records int
	// CheckpointInterval is the local PBFT checkpoint interval in rounds.
	CheckpointInterval uint64
	// LocalTimeout is the local PBFT view-change timeout.
	LocalTimeout time.Duration
	// RemoteTimeout is the base failure-detection timeout for remote
	// clusters; it backs off exponentially on repeated failures
	// (Section 2.3).
	RemoteTimeout time.Duration
	// PipelineDepth bounds how many rounds local replication may run ahead
	// of global execution (Section 2.5); 0 selects the default of 48, and a
	// negative value disables pipelining entirely (ablation).
	PipelineDepth int
	// Fanout is the number of replicas per remote cluster the primary sends
	// certificates to; 0 selects the paper's f+1. Setting it to n is the
	// all-to-cluster ablation (every replica then receives, and verifies, its
	// own copy; acceptance on forwards still takes f+1 of them).
	Fanout int
	// ClientCluster maps a client to its home cluster (clients are informed
	// only by their local cluster, Section 2.4). Nil assigns client i to
	// cluster i mod z.
	ClientCluster func(types.NodeID) int
	// OnExecute, if set, observes every executed batch in execution order
	// (the fabric surfaces committed blocks to applications through it).
	OnExecute func(round uint64, cluster types.ClusterID, batch types.Batch)
	// SnapshotInterval is the checkpoint-snapshot interval in global rounds:
	// every SnapshotInterval-th round the replica captures its executed
	// kvstore state; the snapshot publishes (and history below it becomes
	// garbage-collectable) once the round falls under a stable local PBFT
	// checkpoint. 0 disables snapshots — history is retained forever, the
	// pre-bounded-history behaviour.
	SnapshotInterval uint64
	// Archive, if set, persists published snapshots durably (one per replica
	// data directory). Without it snapshots serve from memory only and do not
	// survive a crash.
	Archive *snapshot.Archive
	// OnSnapshot, if set, observes every snapshot this replica publishes or
	// installs — the fabric garbage-collects ledger disk segments below the
	// snapshot height on this signal, never earlier.
	OnSnapshot func(m *snapshot.Manifest)
	// OnVerifyReject, if set, observes every inbound message the replica
	// discards because a cryptographic check failed or the message is
	// provably forged or mis-routed (bad certificate or Rvc signature,
	// digest mismatch, spoofed identity, an unimportable catch-up range) —
	// never merely stale or duplicate traffic. The fabric counts these into
	// Fabric.Stats so forged messages land in the drop statistics whether
	// an input goroutine's PreVerify or the worker rejects them.
	OnVerifyReject func()
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Records == 0 {
		out.Records = 1000
	}
	if out.CheckpointInterval == 0 {
		out.CheckpointInterval = 6
	}
	if out.LocalTimeout == 0 {
		out.LocalTimeout = 2 * time.Second
	}
	if out.RemoteTimeout == 0 {
		out.RemoteTimeout = 3 * time.Second
	}
	if out.PipelineDepth == 0 {
		out.PipelineDepth = 48
	}
	if out.Fanout == 0 {
		out.Fanout = out.Topo.F() + 1
	}
	if out.ClientCluster == nil {
		z := out.Topo.Clusters
		out.ClientCluster = func(id types.NodeID) int {
			return int(id-types.ClientIDBase) % z
		}
	}
	return out
}

// round aggregates the per-round global state: one commit certificate per
// cluster, executed when complete and in order.
type round struct {
	certs []*pbft.Certificate // indexed by cluster
	have  int
}

// drvcKey identifies one remote view-change agreement instance.
type drvcKey struct {
	target types.ClusterID
	round  uint64
	v      uint64
}

// rvcKey identifies one incoming remote view-change request set.
type rvcKey struct {
	from  types.ClusterID
	round uint64
	v     uint64
}

// Replica is a full GeoBFT replica: local PBFT consensus, inter-cluster
// certificate sharing, remote view-changes, deterministic ordering,
// execution against the YCSB table, ledger maintenance and client replies.
type Replica struct {
	cfg       Config
	myCluster int
	members   []types.NodeID // local cluster members

	env    proto.Env
	local  *pbft.Replica
	store  *kvstore.Store
	ledger *ledger.Ledger

	rounds map[uint64]*round
	// executedRound is the last fully executed global round. Atomic: the
	// worker goroutine is the only writer, but monitoring code reads it while
	// the fabric is running (like execTxns).
	executedRound atomic.Uint64
	// localView mirrors local.View() for the input goroutines' replay
	// re-replies (set in onLocalViewChange; atomic like executedRound).
	localView atomic.Uint64
	localUpTo uint64 // local PBFT rounds committed (own cluster)

	// ledger catch-up (see catchup.go)
	catchupTimer   proto.Timer
	behindSeq      uint64                     // highest local seq f+1 peers provably checkpointed
	evidencedRound uint64                     // highest round seen certified by any cluster
	histRound      uint64                     // clusterHistories fold position (incremental cache)
	hist           []types.Digest             // per-cluster history digests through histRound
	cuOrder        []types.NodeID             // rotating catch-up peer order (local first)
	cuNext         int                        // rotation cursor
	cuFails        uint                       // consecutive no-progress ticks (back-off exponent)
	cuLastHeight   uint64                     // height at the last tick (progress detection)
	cuArmedRound   uint64                     // executed round when the timer was armed (stall detection)
	cuStash        map[uint64][]*ledger.Block // out-of-order verified ranges, by first height

	// checkpoint snapshots & state transfer (see snapshot.go)
	snapPending map[uint64]*pendingSnap // captured, awaiting checkpoint stability
	snapLatest  *snapshot.Manifest      // the serving snapshot
	snapState   []byte                  // its state bytes
	sync        *snapSync               // in-flight snapshot bootstrap, nil when idle

	// primary-side state
	pending []signedBatch // client batches awaiting admission to PBFT
	noopSeq uint64

	// no-op pacing (see paceNoOps)
	clientUpTo   uint64        // highest local round known to carry a client batch (assigned here or committed)
	clientExecAt time.Duration // when a client batch of this cluster last executed
	graceTimer   proto.Timer   // armed while open rounds wait for client batches; nil otherwise

	// other clusters' certificates forwarded by local members, short of f+1
	// matching forwards (see vouch.go)
	held       []*pendingShare // open slots in first-seen order, which is deadline order
	vouchTimer proto.Timer     // armed while a slot is open; nil otherwise

	// remote failure detection (initiation role)
	detTimers  []proto.Timer // per cluster, armed for the blocking round
	detRound   []uint64      // round each timer supervises
	detBackoff []uint
	vCounter   []uint64 // v1 of Figure 7, per target cluster
	drvcVotes  map[drvcKey]map[types.NodeID]bool
	drvcMine   map[drvcKey]bool
	rvcSent    map[drvcKey]bool

	// remote view-change response role
	rvcVotes      map[rvcKey]map[types.NodeID]bool
	rvcForwarded  map[rvcKey]bool
	honoredV      map[types.ClusterID]uint64
	reshareFloor  uint64
	lastInstalled time.Duration

	// stats (atomic: the fabric's monitoring APIs read them while the
	// worker goroutine executes)
	execBatches   atomic.Uint64
	execNoOps     atomic.Uint64
	execTxns      atomic.Uint64
	catchupBlocks atomic.Uint64
	gracesArmed   atomic.Uint64
	graceFilled   atomic.Uint64
	badVoteSigs   atomic.Uint64 // votes of this cluster dropped from a proof: signature bad
	unprovable    atomic.Uint64 // shows declined for want of n−f valid signatures
	vouched       atomic.Uint64 // forwarded certificates accepted on f+1 matching forwards
	selfVerified  atomic.Uint64 // forwarded certificates this replica verified itself

	// snapshot stats (atomic, same contract)
	snapRound      atomic.Uint64
	snapsWritten   atomic.Uint64
	snapsServed    atomic.Uint64
	snapsInstalled atomic.Uint64
	snapsRejected  atomic.Uint64
}

// NewReplica constructs a GeoBFT replica. Call Init (or InitEnv) before use.
func NewReplica(cfg Config) *Replica {
	c := cfg.withDefaults()
	z := c.Topo.Clusters
	r := &Replica{
		cfg:          c,
		myCluster:    int(c.Topo.ClusterOf(c.Self)),
		members:      c.Topo.ClusterMembers(int(c.Topo.ClusterOf(c.Self))),
		rounds:       make(map[uint64]*round),
		detTimers:    make([]proto.Timer, z),
		detRound:     make([]uint64, z),
		detBackoff:   make([]uint, z),
		vCounter:     make([]uint64, z),
		drvcVotes:    make(map[drvcKey]map[types.NodeID]bool),
		drvcMine:     make(map[drvcKey]bool),
		rvcSent:      make(map[drvcKey]bool),
		rvcVotes:     make(map[rvcKey]map[types.NodeID]bool),
		rvcForwarded: make(map[rvcKey]bool),
		honoredV:     make(map[types.ClusterID]uint64),
	}
	// The store and ledger need no environment; building them here makes the
	// Ledger/Store handles valid from construction (monitoring code may read
	// them before the event loop has run InitEnv).
	r.store = kvstore.New(c.Records)
	r.ledger = ledger.New()
	return r
}

// InitEnv wires the replica to any protocol environment: the fabric's node
// or the deterministic simulator's (package detsim).
func (r *Replica) InitEnv(env proto.Env) {
	r.env = env
	r.local = pbft.NewReplica(env, pbft.Config{
		Members:            r.members,
		Self:               r.cfg.Self,
		F:                  r.cfg.Topo.F(),
		CheckpointInterval: r.cfg.CheckpointInterval,
		ViewChangeTimeout:  r.cfg.LocalTimeout,
	}, pbft.Hooks{
		Committed:   r.onLocalCommit,
		ViewChanged: r.onLocalViewChange,
		Behind: func(seq uint64) {
			if seq > r.behindSeq {
				r.behindSeq = seq
			}
			r.scheduleCatchup()
		},
		Rejected:     r.noteReject,
		Checkpointed: r.onStableCheckpoint,
		Proven:       r.onLocalProven,
		BadVoteSig:   func() { r.badVoteSigs.Add(1) },
		Unprovable:   func() { r.unprovable.Add(1) },
	})
}

// noteReject reports one forged or cryptographically invalid inbound message
// (see Config.OnVerifyReject).
func (r *Replica) noteReject() {
	if r.cfg.OnVerifyReject != nil {
		r.cfg.OnVerifyReject()
	}
}

// Receive delivers one inbound message: PreVerify on the replica's own suite,
// then ReceiveVerified. A rejected message is counted (Config.OnVerifyReject)
// and dropped.
func (r *Replica) Receive(from types.NodeID, msg types.Message) {
	if r.PreVerify(r.env.Suite(), from, msg) == proto.VerdictReject {
		r.noteReject()
		return
	}
	r.ReceiveVerified(from, msg)
}

// ReceiveVerified applies a message that PreVerify did not reject: it
// dispatches global GeoBFT messages and hands everything else to the local
// PBFT instance. Every stateful guard runs here; no check PreVerify made runs
// again.
func (r *Replica) ReceiveVerified(from types.NodeID, msg types.Message) {
	switch m := msg.(type) {
	case *pbft.Request:
		if from.IsClient() {
			r.submitClient(m.Batch, m.Sig)
			return
		}
		r.local.HandleVerified(from, msg)
	case *GlobalShare:
		r.env.Suite().ChargeVerifyMAC()
		r.onGlobalShare(from, m)
	case *DRvc:
		r.env.Suite().ChargeVerifyMAC()
		r.onDRvc(from, m)
	case *Rvc:
		r.onRvc(m)
	case *CatchUpReq:
		r.env.Suite().ChargeVerifyMAC()
		r.onCatchUpReq(from, m)
	case *CatchUpResp:
		r.env.Suite().ChargeVerifyMAC()
		r.onCatchUpResp(m)
	case *SnapshotReq:
		r.env.Suite().ChargeVerifyMAC()
		r.onSnapshotReq(from, m)
	case *SnapshotResp:
		r.env.Suite().ChargeVerifyMAC()
		r.onSnapshotResp(from, m)
	default:
		r.local.HandleVerified(from, msg)
	}
}

// quorum is the local n−f threshold.
func (r *Replica) quorum() int { return len(r.members) - r.cfg.Topo.F() }

// IsPrimary reports whether this replica currently leads its cluster.
func (r *Replica) IsPrimary() bool { return r.local.IsPrimary() }

// Ledger exposes the replica's blockchain.
func (r *Replica) Ledger() *ledger.Ledger { return r.ledger }

// Store exposes the replica's table.
func (r *Replica) Store() *kvstore.Store { return r.store }

// Local exposes the local PBFT instance (tests, fault injection).
func (r *Replica) Local() *pbft.Replica { return r.local }

// ExecutedRound returns the last fully executed global round. It is safe to
// call while the replica is running.
func (r *Replica) ExecutedRound() uint64 { return r.executedRound.Load() }

// LocalView returns the installed view of the replica's own cluster. It is
// safe to call while the replica is running.
func (r *Replica) LocalView() uint64 { return r.localView.Load() }

// ExecutedTxns returns the number of transactions executed. It is safe to
// call while the replica is running.
func (r *Replica) ExecutedTxns() uint64 { return r.execTxns.Load() }

// CatchUpBlocks returns how many blocks this replica imported over the
// network via ledger catch-up (disk-bootstrap replays are not counted).
// Tests use it to prove a restarted node reused its on-disk prefix instead
// of re-fetching the whole chain. Safe to call while the replica is running.
func (r *Replica) CatchUpBlocks() uint64 { return r.catchupBlocks.Load() }

// RoundStats returns the replica's round-filling counters: what its executed
// rounds carried, and what no-op pacing did while it was primary. Safe to
// call while the replica is running.
func (r *Replica) RoundStats() metrics.RoundStats {
	return metrics.RoundStats{
		ClientBatches: r.execBatches.Load(),
		NoOpBatches:   r.execNoOps.Load(),
		GracesArmed:   r.gracesArmed.Load(),
		GraceFilled:   r.graceFilled.Load(),
	}
}

// ProofStats returns how many votes of this replica's own cluster were
// dropped from a proof because their signature was bad, and how many shows
// the replica declined because it could not prove what it held (see
// metrics.CryptoStats). Safe to call while the replica is running.
func (r *Replica) ProofStats() (badVoteSigs, unprovable uint64) {
	return r.badVoteSigs.Load(), r.unprovable.Load()
}

// ShareStats returns how many certificates forwarded by members of this
// replica's cluster it accepted on f+1 matching forwards, without a signature
// check, and how many it verified itself because the forwards fell short (see
// metrics.CryptoStats). Safe to call while the replica is running.
func (r *Replica) ShareStats() (vouched, selfVerified uint64) {
	return r.vouched.Load(), r.selfVerified.Load()
}

// --- client admission and pipelining ---------------------------------------

// signedBatch couples a buffered batch with the signature that authenticated
// it, preserved so a backup's forward to the primary carries the proof.
type signedBatch struct {
	b   types.Batch
	sig []byte
}

// submitClient admits a client batch whose signature PreVerify checked. The
// primary feeds PBFT subject to the pipeline bound; backups forward to the
// primary via PBFT's supervision mechanism (which also arms the
// anti-censorship timer).
func (r *Replica) submitClient(b types.Batch, sig []byte) {
	if r.IsPrimary() {
		r.pending = append(r.pending, signedBatch{b, sig})
		r.feedPrimary()
		return
	}
	r.local.SubmitLocal(b, sig, true)
}

// assignedRounds is the highest round the primary has admitted to PBFT
// (assigned or queued).
func (r *Replica) assignedRounds() uint64 {
	return r.local.NextSeq() + uint64(r.local.QueueLen())
}

// feedPrimary moves pending batches into PBFT while the pipeline allows:
// local replication may run at most PipelineDepth rounds ahead of global
// execution (with pipelining disabled, one round at a time).
func (r *Replica) feedPrimary() {
	if !r.IsPrimary() {
		return
	}
	for len(r.pending) > 0 && r.assignedRounds() < r.executedRound.Load()+r.pipelineDepth() {
		r.proposePending()
	}
}

// pipelineDepth is how many rounds past the last executed one a primary
// assigns — the window an honest share falls in.
func (r *Replica) pipelineDepth() uint64 {
	if r.cfg.PipelineDepth < 0 {
		return 1
	}
	return uint64(r.cfg.PipelineDepth)
}

// proposePending hands the oldest pending client batch to PBFT.
func (r *Replica) proposePending() {
	q := r.pending[0]
	r.pending = r.pending[1:]
	r.local.SubmitLocal(q.b, q.sig, true)
	r.clientUpTo = r.assignedRounds()
}

// proposeNoOps fills rounds up to target with no-op batches, used when other
// clusters have advanced to rounds this cluster has no client load for
// (Section 2.5). The fill stops at the pipeline bound feedPrimary applies:
// evidence of a round far ahead (a Byzantine primary's cluster commits
// whatever lies inside its PBFT watermarks) must not queue fills in PBFT
// without bound. tryExecute resumes a fill the bound cut short.
func (r *Replica) proposeNoOps(target uint64) {
	// Mid-view-change, SubmitLocal routes to the backup path (supervise and
	// forward) and assigns no round, so proposing here would spin forever
	// without progress; the view change's own re-proposal logic — and the
	// next share received after it installs — covers the gap instead.
	if !r.IsPrimary() || r.local.InViewChange() {
		return
	}
	target = min(target, r.executedRound.Load()+r.pipelineDepth())
	for r.assignedRounds() < target {
		before := r.assignedRounds()
		if len(r.pending) > 0 {
			r.proposePending()
			continue
		}
		r.noopSeq++
		noop := types.Batch{Client: r.cfg.Self, Seq: r.noopSeq, NoOp: true}
		noop.PrimeDigest() // cache before the proposal is broadcast
		r.local.SubmitLocal(noop, nil, true)
		if r.assignedRounds() == before {
			return // not accepting proposals (window full or deposed): stop
		}
	}
}

// noopGrace is how long a primary whose cluster has client load leaves a
// round open for a client batch before filling it with a no-op. It is sized
// to out-wait one local PBFT commit (measured p50 0.9–1.3 ms, p99 ~3 ms on
// the LAN workloads), which is how far one cluster's proposal for a round
// trails the other's when both have load. It is a constant, not a knob: it
// depends on the local commit time, not on the deployment's WAN delays, and
// an idle cluster never pays it.
const noopGrace = 3 * time.Millisecond

// shareGrace is how long a replica holds another cluster's certificate that
// a member of its own cluster forwarded, waiting for f+1 matching forwards,
// before it verifies the copy itself (see vouch.go). It out-waits the skew
// between the f+1 receivers of a share — each verifies n−f signatures before
// forwarding — and is paid only when a receiver is faulty or slow. A constant
// for the reason noopGrace is: it covers local processing, not WAN delay.
const shareGrace = 3 * time.Millisecond

// hasClientLoad is the pacing rule's test: a client batch of this cluster is
// assigned or committed but not yet executed (its client is about to be
// replied to), or one executed less than a grace ago (a closed-loop client
// resubmits within a round trip of its reply). A cluster that has never
// carried a client batch, or whose clients went quiet, is idle.
func (r *Replica) hasClientLoad() bool {
	if r.clientUpTo > r.executedRound.Load() {
		return true
	}
	return r.clientUpTo > 0 && r.env.Now()-r.clientExecAt < noopGrace
}

// paceNoOps decides what a primary does about rounds other clusters have
// certified and it has not assigned (Section 2.5 lets a cluster propose a
// no-op only when it has no client requests for the round). An idle cluster
// fills them at once, so it costs the others nothing. A cluster with client
// load arms one grace timer instead; client batches admitted meanwhile take
// the open rounds through feedPrimary, and when the timer fires whatever is
// still missing is filled. A timer that fires on a deposed primary or
// mid-view-change does nothing (proposeNoOps guards both); the next share
// re-arms it.
func (r *Replica) paceNoOps() {
	if !r.IsPrimary() || r.local.InViewChange() || r.assignedRounds() >= r.evidencedRound {
		return
	}
	if !r.hasClientLoad() {
		r.proposeNoOps(r.evidencedRound)
		return
	}
	if r.graceTimer != nil {
		return
	}
	r.gracesArmed.Add(1)
	open := r.assignedRounds()
	r.graceTimer = r.env.SetTimer(noopGrace, func() {
		r.graceTimer = nil
		if taken := min(r.assignedRounds(), r.evidencedRound); r.IsPrimary() && taken > open {
			r.graceFilled.Add(taken - open)
		}
		r.proposeNoOps(r.evidencedRound)
	})
}

// --- local replication completion -------------------------------------------

// onLocalCommit receives the local cluster's commit certificates in round
// order (PBFT delivers them gap-free). cert is what the decision was counted
// on: votes authenticated by their channels, signatures unchecked. That is
// enough to order and execute the batch. When there are other clusters, the
// primary is about to show it to them, so the primary proves it, here, every
// round; if a vote in it turns out bad the share waits for the next vote
// (onLocalProven). With one cluster nothing is shown, so nothing is proven
// until something leaves the replica (provenOwn).
func (r *Replica) onLocalCommit(seq uint64, cert *pbft.Certificate) {
	r.localUpTo = seq
	if !cert.Batch.NoOp && seq > r.clientUpTo {
		r.clientUpTo = seq // also seen by backups, so a new primary inherits it
	}
	if r.IsPrimary() && r.cfg.Topo.Clusters > 1 {
		if proven, _ := r.local.Prove(seq); proven != nil {
			cert = proven
			r.shareRound(seq, cert)
		}
	}
	r.setCert(types.ClusterID(r.myCluster), seq, cert)
	r.feedPrimary()
	r.rearmDetection()
}

// onLocalProven resumes what waited on a proof of round seq that came up
// short: the primary's share, a disk-backed replica's execution.
func (r *Replica) onLocalProven(seq uint64, cert *pbft.Certificate) {
	if r.IsPrimary() {
		r.shareRound(seq, cert)
	}
	r.tryExecute()
}

// provenOwn returns this cluster's certificate for rnd in the form it may be
// shown to anyone who cannot rely on our channels: n−f commit signatures this
// replica has verified itself. Other clusters' certificates need no such
// step: each was verified, or vouched for by f+1 members of this cluster one
// of which verified it (vouch.go), before it was accepted. held is the certificate the
// caller has for the round (from the round state or the ledger); it is used
// only when the local PBFT no longer remembers the round and then has to
// verify whole. nil means not provable, or not yet.
func (r *Replica) provenOwn(rnd uint64, held *pbft.Certificate) *pbft.Certificate {
	if cert, known := r.local.Prove(rnd); known {
		return cert
	}
	if held != nil && held.Verify(r.env.Suite(), r.members, r.quorum()) {
		return held
	}
	return nil
}

// showBlock returns b in the form it may leave this replica: as is when it
// holds another cluster's batch, carrying a proven certificate when it holds
// one of ours, nil — counted — when that cannot be had. The chain's block is
// never modified; a block whose certificate had to be replaced is a copy.
func (r *Replica) showBlock(b *ledger.Block) *ledger.Block {
	if int(b.Cluster) != r.myCluster {
		return b
	}
	held, _ := b.Cert.(*pbft.Certificate)
	cert := r.provenOwn(b.Round, held)
	switch cert {
	case nil:
		r.unprovable.Add(1)
		return nil
	case held:
		return b
	}
	nb := *b
	nb.Cert, nb.CertDigest = cert, cert.CertDigest()
	return &nb
}

// ShowBlock returns the block at height h for handing to a client (a proven
// read, the RPC block endpoint): see showBlock. nil when there is no such
// block or its certificate cannot be proven. It must run on the replica's
// event loop.
func (r *Replica) ShowBlock(h uint64) *ledger.Block {
	if b := r.ledger.Block(h); b != nil {
		return r.showBlock(b)
	}
	return nil
}

// shareRound performs the global phase of Figure 5: send the certificate to
// Fanout (= f+1) replicas of every other cluster. The receivers rotate with
// the round — local indices (seq+i) mod n, i < Fanout — because a receiver
// pays the n−f signature checks the rest of its cluster is spared (vouch.go):
// fixed at indices 0…f, the cost would sit on the same replicas every round,
// the primary among them.
func (r *Replica) shareRound(seq uint64, cert *pbft.Certificate) {
	msg := &GlobalShare{Cluster: types.ClusterID(r.myCluster), Round: seq, Cert: cert}
	n := r.cfg.Topo.PerCluster
	for c := 0; c < r.cfg.Topo.Clusters; c++ {
		if c == r.myCluster {
			continue
		}
		for i := 0; i < r.cfg.Fanout && i < n; i++ {
			r.env.Suite().ChargeMAC()
			r.env.Send(r.cfg.Topo.ReplicaID(c, int((seq+uint64(i))%uint64(n))), msg)
		}
	}
}

// --- global sharing, receive side -------------------------------------------

// onGlobalShare applies another cluster's certificate, well formed and from
// another cluster (PreVerify). One that arrives from outside the replica's
// cluster was verified by PreVerify and is broadcast to the cluster, the
// local phase of Figure 5. One that a member of the cluster forwarded is not
// verified on arrival: it is held until f+1 members have forwarded the same
// bytes (vouch.go).
func (r *Replica) onGlobalShare(from types.NodeID, m *GlobalShare) {
	executed := r.executedRound.Load()
	if m.Round <= executed {
		return // stale: already executed
	}
	if rd := r.rounds[m.Round]; rd != nil && rd.certs[m.Cluster] != nil {
		return // duplicate
	}
	if r.isLocalPeer(from) {
		if m.Round <= executed+r.pipelineDepth() {
			r.vouch(from, m)
			return
		}
		// Verify the certificate against the origin cluster's membership:
		// n−f valid commit signatures (Proposition 2.5, Agreement). A
		// forwarded copy lands here only when its round lies beyond the
		// pipeline window, further ahead of this replica's execution than an
		// honest primary runs: the replica is far behind, and the verified
		// certificate is the evidence that starts its catch-up. It is not
		// broadcast: only what arrived from outside is.
		if !r.verifyShare(m) {
			r.noteReject() // forged or garbled certificate
			return
		}
		r.selfVerified.Add(1)
		r.acceptShare(m)
		return
	}
	r.acceptShare(m)
	for _, peer := range r.members {
		if peer != r.cfg.Self {
			r.env.Suite().ChargeMAC()
			r.env.Send(peer, m)
		}
	}
}

// verifyShare runs the n−f signature checks of a share's certificate.
func (r *Replica) verifyShare(m *GlobalShare) bool {
	return m.Cert.Verify(r.env.Suite(), r.cfg.Topo.ClusterMembers(int(m.Cluster)), r.quorum())
}

// acceptShare installs a certificate of another cluster that this replica
// verified or that f+1 members of its cluster vouched for, and acts on the
// evidence it is. Nothing short of this point — no held, unverified copy —
// counts as evidence of a round.
func (r *Replica) acceptShare(m *GlobalShare) {
	r.settle(shareSlot{m.Cluster, m.Round})
	r.setCert(m.Cluster, m.Round, m.Cert)

	// Evidence of round m.Round lets the primary fill the rounds it lacks
	// client load for (Section 2.5) — at once when idle, after a grace when
	// client batches are in flight.
	r.paceNoOps()

	// A fresh certificate from the cluster resets its failure-detection
	// back-off.
	r.detBackoff[m.Cluster] = 0
	r.rearmDetection()

	// A certified round beyond the next executable one is evidence we may be
	// missing executed history (crash, amnesia restart, long partition):
	// supervise the gap and pull certified blocks if it persists.
	if m.Round > r.executedRound.Load()+1 {
		r.scheduleCatchup()
	}
}

func (r *Replica) setCert(cluster types.ClusterID, rnd uint64, cert *pbft.Certificate) {
	if rnd <= r.executedRound.Load() {
		return
	}
	rd := r.rounds[rnd]
	if rd == nil {
		rd = &round{certs: make([]*pbft.Certificate, r.cfg.Topo.Clusters)}
		r.rounds[rnd] = rd
	}
	if rd.certs[cluster] != nil {
		return
	}
	rd.certs[cluster] = cert
	rd.have++
	if rnd > r.evidencedRound {
		r.evidencedRound = rnd
	}
	r.tryExecute()
}

// --- ordering and execution (Section 2.4) ------------------------------------

func (r *Replica) tryExecute() {
	// With a durability stage behind the ledger (a disk-backed fabric node)
	// nothing below waits for the disk: blocks join the in-memory chain, each
	// round is handed to the persister as one unit, and only the client
	// acknowledgements wait — held until the fsync covering their block
	// returns, then sent from the persister goroutine (the environments that
	// attach a store have a goroutine-safe Send). Without one — the
	// deterministic simulator, memory-only deployments — replies leave inline.
	async := r.ledger.Persisting()
	for {
		next := r.executedRound.Load() + 1
		rd := r.rounds[next]
		if rd == nil || rd.have < r.cfg.Topo.Clusters {
			return
		}
		if async {
			// What reaches the disk is re-verified at the next start and
			// served to peers: a disk-backed replica proves its own cluster's
			// certificate before the block exists. Short of n−f valid votes
			// the round waits for the next one (onLocalProven).
			own := r.provenOwn(next, rd.certs[r.myCluster])
			if own == nil {
				return
			}
			rd.certs[r.myCluster] = own
		}
		r.executedRound.Store(next)
		delete(r.rounds, next)
		for c := 0; c < r.cfg.Topo.Clusters; c++ {
			cert := rd.certs[c]
			batch := cert.Batch
			r.env.Suite().ChargeExec(batch.Len())
			r.store.ApplyBatch(&batch)
			// The certificate rides along on the block: the ledger retains
			// the full chain and serves it to recovering replicas (catch-up),
			// replacing the old bounded round-retention window.
			r.ledger.AppendCertified(next, types.ClusterID(c), batch, cert)
			if r.cfg.OnExecute != nil {
				r.cfg.OnExecute(next, types.ClusterID(c), batch)
			}
			if batch.NoOp {
				r.execNoOps.Add(1)
				continue
			}
			if c == r.myCluster {
				r.clientExecAt = r.env.Now()
			}
			r.execBatches.Add(1)
			r.execTxns.Add(uint64(batch.Len()))
			// Inform only local clients (Section 2.4).
			if r.cfg.ClientCluster(batch.Client) == r.myCluster && batch.Client.IsClient() {
				r.env.Suite().ChargeMAC()
				client, reply := batch.Client, &proto.Reply{
					Client:    batch.Client,
					ClientSeq: batch.Seq,
					Replica:   r.cfg.Self,
					View:      r.local.View(),
					TxnCount:  batch.Len(),
					Result:    cert.Digest,
				}
				if async {
					r.ledger.AfterDurable(func() { r.env.Send(client, reply) })
				} else {
					r.env.Send(client, reply)
				}
			}
		}
		r.ledger.Handoff()
		r.maybeCaptureSnapshot(next)
		r.gcRemoteState(next)
		r.feedPrimary()
		if r.evidencedRound >= next+r.pipelineDepth() {
			// The last fill stopped at the pipeline bound short of the
			// evidence; the bound just moved.
			r.paceNoOps()
		}
		r.rearmDetection()
	}
}

func (r *Replica) gcRemoteState(upTo uint64) {
	for k := range r.drvcVotes {
		if k.round <= upTo {
			delete(r.drvcVotes, k)
		}
	}
	for k := range r.drvcMine {
		if k.round <= upTo {
			delete(r.drvcMine, k)
		}
	}
	for k := range r.rvcSent {
		if k.round <= upTo {
			delete(r.rvcSent, k)
		}
	}
	for k := range r.rvcVotes {
		if k.round <= upTo {
			delete(r.rvcVotes, k)
		}
	}
	for k := range r.rvcForwarded {
		if k.round <= upTo {
			delete(r.rvcForwarded, k)
		}
	}
}

// --- remote failure detection (Figure 7, initiation role) -------------------

// rearmDetection supervises the round blocking execution: for each remote
// cluster whose certificate for round executedRound+1 is missing while there
// is evidence the round exists, a timer runs (Section 2.3: "every replica
// sets a timer for C1 at the start of round ρ").
func (r *Replica) rearmDetection() {
	blocking := r.executedRound.Load() + 1
	rd := r.rounds[blocking]
	evidence := r.localUpTo >= blocking || (rd != nil && rd.have > 0)
	for c := 0; c < r.cfg.Topo.Clusters; c++ {
		if c == r.myCluster {
			continue
		}
		missing := rd == nil || rd.certs[c] == nil
		if evidence && missing {
			if r.detTimers[c] != nil && r.detRound[c] == blocking {
				continue // already supervising this round
			}
			if r.detTimers[c] != nil {
				r.detTimers[c].Stop()
			}
			r.armDetTimer(c, blocking)
		} else if r.detTimers[c] != nil {
			r.detTimers[c].Stop()
			r.detTimers[c] = nil
		}
	}
}

func (r *Replica) armDetTimer(c int, rnd uint64) {
	d := r.cfg.RemoteTimeout
	for i := uint(0); i < r.detBackoff[c] && i < 6; i++ {
		d *= 2
	}
	r.detRound[c] = rnd
	r.detTimers[c] = r.env.SetTimer(d, func() {
		r.detTimers[c] = nil
		if r.executedRound.Load()+1 != rnd {
			r.rearmDetection()
			return
		}
		rd := r.rounds[rnd]
		if rd != nil && rd.certs[c] != nil {
			return
		}
		r.detBackoff[c]++
		r.detectFailure(types.ClusterID(c), rnd)
		r.armDetTimer(c, rnd) // keep supervising with back-off
	})
}

// detectFailure broadcasts DRvc to reach local agreement on the failure of
// cluster target in round rnd (Figure 7 lines 2–4).
func (r *Replica) detectFailure(target types.ClusterID, rnd uint64) {
	v := r.vCounter[target]
	k := drvcKey{target: target, round: rnd, v: v}
	if r.drvcMine[k] {
		return
	}
	r.drvcMine[k] = true
	r.vCounter[target] = v + 1
	m := &DRvc{Target: target, Round: rnd, V: v, Replica: r.cfg.Self}
	for _, peer := range r.members {
		if peer != r.cfg.Self {
			r.env.Suite().ChargeMAC()
			r.env.Send(peer, m)
		}
	}
	r.recordDRvc(k, r.cfg.Self)
}

func (r *Replica) onDRvc(from types.NodeID, m *DRvc) {
	if int(r.cfg.Topo.ClusterOf(from)) != r.myCluster || m.Replica != from {
		return
	}
	if int(m.Target) == r.myCluster {
		return
	}
	// Lines 5–7: answer with the message if we have it (including rounds we
	// already executed — the sender is simply behind; the ledger retains the
	// full chain, so any executed round can be answered).
	if cert := r.certAt(m.Round, m.Target); cert != nil {
		r.env.Suite().ChargeMAC()
		r.env.Send(from, &GlobalShare{Cluster: m.Target, Round: m.Round, Cert: cert})
		return
	}
	if m.Round <= r.executedRound.Load() {
		return // executed; nothing useful to add
	}
	k := drvcKey{target: m.Target, round: m.Round, v: m.V}
	r.recordDRvc(k, from)
}

func (r *Replica) recordDRvc(k drvcKey, from types.NodeID) {
	set := r.drvcVotes[k]
	if set == nil {
		set = make(map[types.NodeID]bool)
		r.drvcVotes[k] = set
	}
	if set[from] {
		return
	}
	set[from] = true

	f := r.cfg.Topo.F()
	// Lines 8–11: f+1 matching detections prove at least one non-faulty
	// replica detected the failure — join it.
	if len(set) >= f+1 && !r.drvcMine[k] {
		if r.vCounter[k.target] <= k.v {
			r.vCounter[k.target] = k.v
		}
		r.detectFailureAt(k)
	}
	// Line 12: n−f agreement → send the remote view-change request to the
	// same-id replica of the target cluster.
	if len(set) >= r.quorum() && !r.rvcSent[k] {
		r.rvcSent[k] = true
		local := r.cfg.Topo.LocalIndex(r.cfg.Self)
		peer := r.cfg.Topo.ReplicaID(int(k.target), local)
		rvc := &Rvc{
			Target: k.target, From: types.ClusterID(r.myCluster),
			Round: k.round, V: k.v, Replica: r.cfg.Self,
		}
		rvc.Sig = r.env.Suite().Sign(RvcPayload(rvc))
		r.env.Suite().ChargeMAC()
		r.env.Send(peer, rvc)
	}
}

// detectFailureAt emits our own DRvc for an agreement instance another
// replica started (the f+1 adoption rule).
func (r *Replica) detectFailureAt(k drvcKey) {
	if r.drvcMine[k] {
		return
	}
	r.drvcMine[k] = true
	m := &DRvc{Target: k.target, Round: k.round, V: k.v, Replica: r.cfg.Self}
	for _, peer := range r.members {
		if peer != r.cfg.Self {
			r.env.Suite().ChargeMAC()
			r.env.Send(peer, m)
		}
	}
	r.recordDRvc(k, r.cfg.Self)
}

// --- remote view-change, response role (Figure 7 lines 14–17) ---------------

// onRvc applies a remote view-change request for this cluster, signed by a
// replica of the cluster it claims to come from (PreVerify).
func (r *Replica) onRvc(m *Rvc) {
	k := rvcKey{from: m.From, round: m.Round, v: m.V}

	// Line 14–15: forward a well-formed external request to all local
	// replicas (once).
	if !r.rvcForwarded[k] {
		r.rvcForwarded[k] = true
		for _, peer := range r.members {
			if peer != r.cfg.Self {
				r.env.Suite().ChargeMAC()
				r.env.Send(peer, m)
			}
		}
	}

	set := r.rvcVotes[k]
	if set == nil {
		set = make(map[types.NodeID]bool)
		r.rvcVotes[k] = set
	}
	if set[m.Replica] {
		return
	}
	set[m.Replica] = true

	// Track the lowest round any cluster is still waiting on; a new primary
	// resumes sharing from there.
	if r.reshareFloor == 0 || m.Round < r.reshareFloor {
		r.reshareFloor = m.Round
	}

	// Line 16: f+1 matching signed requests from one cluster, no concurrent
	// local view-change, and replay protection on v.
	if len(set) <= r.cfg.Topo.F() {
		return
	}
	if r.local.InViewChange() {
		return
	}
	if hv, ok := r.honoredV[m.From]; ok && m.V <= hv {
		return
	}
	if r.env.Now()-r.lastInstalled < r.cfg.LocalTimeout/2 {
		return // a view-change just completed; give it a chance to resend
	}
	r.honoredV[m.From] = m.V
	// Line 17: detect failure of our own primary → local view-change.
	r.local.ForceViewChange()
}

// onLocalViewChange reacts to the installation of a new local view: the new
// primary resumes global sharing for every round that may not have reached
// the other clusters (Section 2.3, "the new primary takes one of the remote
// view-change requests it received and determines the rounds for which it
// needs to send requests").
func (r *Replica) onLocalViewChange(view uint64, primary types.NodeID) {
	r.lastInstalled = r.env.Now()
	r.localView.Store(view)
	if primary != r.cfg.Self {
		return
	}
	from := r.executedRound.Load() + 1
	if r.reshareFloor > 0 && r.reshareFloor < from {
		from = r.reshareFloor
	}
	// A round whose retained votes do not yet prove is skipped here and
	// shared from onLocalProven when the next vote completes it.
	const maxReshare = 512
	count := 0
	for rnd := from; rnd <= r.localUpTo && count < maxReshare; rnd++ {
		if cert := r.certAt(rnd, types.ClusterID(r.myCluster)); cert != nil {
			r.shareRound(rnd, cert)
			count++
		}
	}
	r.reshareFloor = 0
	r.feedPrimary()
	// Rounds other clusters certified while the old primary was failing
	// still need this cluster's decision; without filling them now, the
	// cluster stays blocked until the *next* share happens to arrive — which
	// a client stalled on the blocked round may never produce.
	r.proposeNoOps(r.evidencedRound)
}

// String identifies the replica in logs.
func (r *Replica) String() string {
	return fmt.Sprintf("geobft(r%d,c%d)", int(r.cfg.Self), r.myCluster)
}
