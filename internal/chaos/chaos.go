// Package chaos is a deterministic fault-injection harness for the
// ResilientDB fabric: scripted scenarios crash primaries, partition
// clusters, restart replicas with or without their disk, and hand up to f
// replicas per cluster to scripted Byzantine adversaries
// (internal/byzantine), then assert the guarantees the paper claims for
// GeoBFT — safety (every honest replica's ledger verifies and all honest
// ledgers are prefixes of one another) and liveness (the commit height
// advances again once the fault heals or is routed around by local/remote
// view changes).
//
// Scenarios run a real fabric over the in-process transport wrapped in
// transport.Faulty (and, with Byzantine roles, transport.Tap), so every
// injected decision comes from a fixed seed. The suite runs in tier-1
// (`go test ./internal/chaos`) and via `make chaos`; set CHAOS_SEED to
// replay one seed byte-for-byte (see the README's seed-replay workflow).
package chaos

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"resilientdb/internal/byzantine"
	"resilientdb/internal/config"
	"resilientdb/internal/core"
	"resilientdb/internal/crypto"
	"resilientdb/internal/fabric"
	"resilientdb/internal/ledger"
	"resilientdb/internal/mempool"
	"resilientdb/internal/metrics"
	"resilientdb/internal/pbft"
	"resilientdb/internal/transport"
	"resilientdb/internal/types"
)

// Scenario is one scripted fault-injection run.
type Scenario struct {
	// Name identifies the scenario in logs and test output.
	Name string
	// Description says what the scenario proves.
	Description string
	// Clusters and Replicas set the topology (z clusters of n replicas).
	Clusters, Replicas int
	// Disk runs the deployment disk-backed: every replica persists its
	// ledger to a block store under a scenario-scoped temporary data
	// directory, so restarts recover from real files (and the scenario can
	// corrupt those files to model torn writes).
	Disk bool
	// SnapshotInterval bounds history for the run: every N rounds each
	// replica checkpoints its executed state and garbage-collects ledger
	// segments below it (0: disabled). See fabric.Config.SnapshotInterval.
	SnapshotInterval uint64
	// Seed, when set, pre-populates the scenario's data directory before
	// the deployment opens (disk-backed scenarios only): the hook writes
	// each replica's stores exactly as a prior long, GC'd run would have
	// left them, so a scenario can model joining a chain far longer than a
	// test could execute live.
	Seed func(dataDir string, topo config.Topology) error
	// Byzantine hands replicas to scripted adversaries. Compromised
	// replicas keep running their honest state machine, but every message
	// they send passes through the role's attack script. They are excluded
	// from the safety and convergence assertions (the invariants GeoBFT
	// claims are over honest replicas). Run refuses more than f roles per
	// cluster unless AllowOverF is set.
	Byzantine []Role
	// AllowOverF lifts the per-cluster fault-bound check on Byzantine
	// roles. It exists only for the harness's own teeth tests, which prove
	// the invariant checks fail once the >f assumption is violated.
	AllowOverF bool
	// Mempool tunes each replica's client admission layer for the run
	// (zero values select the mempool package defaults). Client-boundary
	// scenarios shrink capacity and rate limits so a rogue client hits
	// them within seconds instead of minutes.
	Mempool mempool.Config
	// Run drives the deployment; a non-nil error is an assertion failure.
	Run func(e *Env) error
}

// Role assigns an attack script to one replica of the topology.
type Role struct {
	// Cluster and Index locate the compromised replica.
	Cluster, Index int
	// Script is the deterministic attack it runs (see internal/byzantine).
	Script byzantine.Script
}

// Run executes one scenario against a fresh deployment whose fault injector
// (and adversary fleet, with Byzantine roles) is seeded with seed. logf
// (optional) receives progress lines.
func Run(s Scenario, seed int64, logf func(format string, args ...any)) error {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	topo := config.NewTopology(s.Clusters, s.Replicas)
	if err := checkFaultBound(s, topo); err != nil {
		return err
	}
	net := transport.NewFaulty(transport.NewMem(), seed)
	var tr transport.Transport = net
	byz := make(map[types.NodeID]*byzantine.Adversary, len(s.Byzantine))
	var audit *certAudit
	if len(s.Byzantine) > 0 {
		fleet := byzantine.NewFleet(seed)
		for _, role := range s.Byzantine {
			id := topo.ReplicaID(role.Cluster, role.Index)
			byz[id] = fleet.Adversary(topo, crypto.Real, id, role.Script)
		}
		audit = newCertAudit(topo)
		// The tap wraps the fault injector: a compromised replica's rewritten
		// deliveries experience the same drops and partitions as honest
		// traffic. Honest replicas' sends pass the certificate audit on the
		// way.
		tr = transport.NewTap(net, func(from, to types.NodeID, msg types.Message) ([]transport.Delivery, bool) {
			if byz[from] == nil {
				audit.observe(from, msg)
			}
			return fleet.Intercept(from, to, msg)
		})
	}
	cfg := fabric.Config{
		Topo:             topo,
		Records:          128,
		LocalTimeout:     400 * time.Millisecond,
		RemoteTimeout:    700 * time.Millisecond,
		Transport:        tr,
		Mempool:          s.Mempool,
		SnapshotInterval: s.SnapshotInterval,
	}
	var dataDir string
	if s.Disk {
		var err error
		if dataDir, err = os.MkdirTemp("", "chaos-"+s.Name+"-*"); err != nil {
			return fmt.Errorf("chaos: %w", err)
		}
		defer os.RemoveAll(dataDir)
		cfg.DataDir = dataDir
		if s.Seed != nil {
			if err := s.Seed(dataDir, topo); err != nil {
				return fmt.Errorf("chaos: seeding %s: %w", s.Name, err)
			}
		}
	}
	fab, err := fabric.Open(cfg)
	if err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	e := &Env{
		Topo:    topo,
		Fab:     fab,
		Net:     net,
		Logf:    logf,
		dataDir: dataDir,
		crashed: make(map[types.NodeID]bool),
		byz:     byz,
	}
	defer e.StopAll()
	logf("chaos/%s: z=%d n=%d seed=%d disk=%v byzantine=%d", s.Name, s.Clusters, s.Replicas, seed, s.Disk, len(s.Byzantine))
	if err := s.Run(e); err != nil {
		return err
	}
	if audit != nil {
		return audit.err()
	}
	return nil
}

// certAudit checks from outside, in every scenario with Byzantine roles, the
// property the rest depends on: a commit certificate an honest replica sends
// — shared with another cluster, or inside a block of a catch-up response —
// verifies. Honest replicas count commit votes on channel authentication and
// must prove a certificate before showing it; whatever a compromised cluster
// member signed, nothing unproven may leave them. Each certificate object is
// checked once (the in-process transport passes it by pointer to every
// recipient).
type certAudit struct {
	topo  config.Topology
	suite *crypto.Suite
	seen  sync.Map // *pbft.Certificate → struct{}

	mu    sync.Mutex
	bad   int
	first string
}

func newCertAudit(topo config.Topology) *certAudit {
	id := topo.ReplicaID(0, 0) // any identity: verification uses public keys only
	dir := crypto.NewDirectory(crypto.Real, topo.AllReplicas())
	return &certAudit{topo: topo, suite: crypto.NewSuite(dir, id, crypto.FreeCosts(), nil)}
}

func (a *certAudit) observe(from types.NodeID, msg types.Message) {
	switch m := msg.(type) {
	case *core.GlobalShare:
		a.check(from, m.Cluster, m.Cert, "shared")
	case *core.CatchUpResp:
		for _, b := range m.Blocks {
			if cert, ok := b.Cert.(*pbft.Certificate); ok {
				a.check(from, b.Cluster, cert, "served in a catch-up response")
			}
		}
	}
}

func (a *certAudit) check(from types.NodeID, cluster types.ClusterID, cert *pbft.Certificate, how string) {
	if cert == nil {
		return
	}
	if _, dup := a.seen.LoadOrStore(cert, struct{}{}); dup {
		return
	}
	c := int(cluster)
	if c >= 0 && c < a.topo.Clusters && cert.Verify(a.suite, a.topo.ClusterMembers(c), a.topo.PerCluster-a.topo.F()) {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.bad++; a.bad == 1 {
		a.first = fmt.Sprintf("honest replica %v %s a certificate for sequence %d of cluster %d that does not verify", from, how, cert.Seq, cluster)
	}
}

func (a *certAudit) err() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.bad > 0 {
		return fmt.Errorf("chaos: %d certificates of honest replicas do not verify; first: %s", a.bad, a.first)
	}
	return nil
}

// checkFaultBound enforces the ≤ f Byzantine replicas per cluster assumption
// the protocol's guarantees rest on (unless the scenario explicitly opts out
// to prove what happens beyond it).
func checkFaultBound(s Scenario, topo config.Topology) error {
	if s.AllowOverF {
		return nil
	}
	perCluster := make(map[int]int)
	for _, role := range s.Byzantine {
		perCluster[role.Cluster]++
		if perCluster[role.Cluster] > topo.F() {
			return fmt.Errorf("chaos: scenario %s violates the fault bound: %d byzantine replicas in cluster %d, protocol tolerates f=%d (set AllowOverF to test beyond the bound)",
				s.Name, perCluster[role.Cluster], role.Cluster, topo.F())
		}
	}
	return nil
}

// Env is the running deployment a scenario manipulates and asserts against.
type Env struct {
	// Topo is the deployment shape (z clusters of n replicas).
	Topo config.Topology
	// Fab is the running fabric under test.
	Fab *fabric.Fabric
	// Net is the seeded fault injector wrapping the transport.
	Net *transport.Faulty
	// Logf receives progress lines (never nil).
	Logf func(format string, args ...any)

	mu      sync.Mutex
	loaders []*Loader
	crashed map[types.NodeID]bool
	stopped bool
	dataDir string // scenario-scoped block-store root ("" unless Scenario.Disk)
	byz     map[types.NodeID]*byzantine.Adversary
}

// Adversary returns the attack runtime compromising a replica (nil for
// honest replicas), so scenarios can arm it and assert on its action
// counters.
func (e *Env) Adversary(cluster, idx int) *byzantine.Adversary {
	return e.byz[e.ReplicaID(cluster, idx)]
}

// Arm activates a compromised replica's attack script (scripts start dormant
// so the scenario can prove the deployment healthy first). It panics on an
// honest replica — that is a scenario bug.
func (e *Env) Arm(cluster, idx int) {
	adv := e.Adversary(cluster, idx)
	if adv == nil {
		panic(fmt.Sprintf("chaos: Arm(%d,%d): replica has no byzantine role", cluster, idx))
	}
	e.Logf("chaos: arming %s on %v", adv.Script().Name(), adv.ID())
	adv.Arm()
}

// CryptoStats reads the deployment-wide signature counters: ed25519
// operations run, votes found badly signed when a proof was assembled, shows
// declined for want of a proof (summed across replicas).
func (e *Env) CryptoStats() metrics.CryptoStats { return e.Fab.Stats().Crypto }

// VerifyRejects reads the deployment's forged-message counter: every message
// discarded by a cryptographic check, pooled or inline (see
// metrics.DropStats.VerifyReject).
func (e *Env) VerifyRejects() uint64 { return e.Fab.Stats().VerifyReject }

// SnapshotStats reads the deployment-wide checkpoint/GC counters (snapshots
// written, served, installed, rejected; segments and bytes reclaimed), summed
// across replicas.
func (e *Env) SnapshotStats() metrics.SnapshotStats { return e.Fab.Stats().Snapshots }

// NodeSnapshotStats reads one replica's checkpoint/GC counters.
func (e *Env) NodeSnapshotStats(cluster, idx int) metrics.SnapshotStats {
	return e.Fab.Node(e.ReplicaID(cluster, idx)).SnapshotStats()
}

// MempoolStats reads the deployment-wide client admission counters
// (duplicates shed, replays answered from the ledger, rate-limited and
// evicted requests), summed across replicas.
func (e *Env) MempoolStats() metrics.MempoolStats { return e.Fab.Stats().Mempool }

// MempoolLen reads one replica's count of pending admitted client requests —
// the quantity Scenario.Mempool.Capacity bounds.
func (e *Env) MempoolLen(cluster, idx int) int {
	return e.Fab.Node(e.ReplicaID(cluster, idx)).MempoolLen()
}

// RogueClient provisions client identity index as a scripted Byzantine
// client attacking the deployment's admission boundary (see
// byzantine.RogueClient). Its traffic rides the same fault-injected
// transport as honest clients'.
func (e *Env) RogueClient(index int) *byzantine.RogueClient {
	e.Logf("chaos: provisioning rogue client %d (cluster %d)", index, index%e.Topo.Clusters)
	return byzantine.NewRogueClient(e.Net, e.Topo, crypto.Real, index)
}

// NodeDir returns a replica's block-store directory in a disk-backed
// scenario, so scripts can corrupt its files while the replica is down.
func (e *Env) NodeDir(cluster, idx int) string {
	return filepath.Join(e.dataDir, fmt.Sprintf("node-%d", int(e.ReplicaID(cluster, idx))))
}

// TearDiskTail models a crash mid-write against a stopped replica's block
// store: the last bytes of its newest segment file are chopped mid-record
// and a fragment of garbage is appended, exactly the shape a power cut
// leaves behind. The replica must be crashed first (its store is closed);
// recovery on restart must truncate the torn tail and keep the clean prefix.
func (e *Env) TearDiskTail(cluster, idx int) error {
	segs, err := filepath.Glob(filepath.Join(e.NodeDir(cluster, idx), "seg-*.rdb"))
	if err != nil {
		return fmt.Errorf("chaos: listing segments for (%d,%d): %w", cluster, idx, err)
	}
	if len(segs) == 0 {
		return fmt.Errorf("chaos: no segments to tear for (%d,%d) in %s", cluster, idx, e.NodeDir(cluster, idx))
	}
	sort.Strings(segs)
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	if err := os.Truncate(last, fi.Size()-1); err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	defer f.Close()
	// A partial record: a plausible length prefix with too few bytes after it.
	if _, err := f.Write([]byte{0x00, 0x00, 0x01, 0x00, 0xde, 0xad}); err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	e.Logf("chaos: tore disk tail of %s", last)
	return nil
}

// ReplicaID maps (cluster, local index) to a node id.
func (e *Env) ReplicaID(cluster, idx int) types.NodeID { return e.Topo.ReplicaID(cluster, idx) }

// ClusterNodes returns the replica ids of one cluster (for partitioning).
func (e *Env) ClusterNodes(cluster int) []types.NodeID { return e.Topo.ClusterMembers(cluster) }

// Crash halts one replica like a machine failure.
func (e *Env) Crash(cluster, idx int) {
	id := e.ReplicaID(cluster, idx)
	e.Logf("chaos: crash %v", id)
	e.Fab.StopNode(id)
	e.mu.Lock()
	e.crashed[id] = true
	e.mu.Unlock()
}

// Restart brings a crashed replica back, with its ledger (crash-with-disk)
// or without (amnesia).
func (e *Env) Restart(cluster, idx int, keepLedger bool) error {
	id := e.ReplicaID(cluster, idx)
	e.Logf("chaos: restart %v keepLedger=%v", id, keepLedger)
	if err := e.Fab.StartNode(id, keepLedger); err != nil {
		return err
	}
	e.mu.Lock()
	delete(e.crashed, id)
	e.mu.Unlock()
	return nil
}

// live returns the ids of honest replicas that are not crashed. Compromised
// replicas are excluded: the invariants every scenario asserts — prefix
// safety, convergence — are GeoBFT's claims about honest replicas (a
// Byzantine node's ledger is its own problem).
func (e *Env) live() []types.NodeID {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []types.NodeID
	for _, id := range e.Topo.AllReplicas() {
		if !e.crashed[id] && e.byz[id] == nil {
			out = append(out, id)
		}
	}
	return out
}

// Height reads one replica's ledger height (safe while running).
func (e *Env) Height(cluster, idx int) uint64 {
	return e.Fab.Replica(e.ReplicaID(cluster, idx)).Ledger().Height()
}

// MaxHeight returns the highest ledger height across live replicas.
func (e *Env) MaxHeight() uint64 {
	var max uint64
	for _, id := range e.live() {
		if h := e.Fab.Replica(id).Ledger().Height(); h > max {
			max = h
		}
	}
	return max
}

// waitFor calls check every period until it returns nil, or returns its
// last error once timeout has elapsed.
func waitFor(timeout, period time.Duration, check func() error) error {
	deadline := time.Now().Add(timeout)
	for {
		err := check()
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(period)
	}
}

// WaitHeight polls until the replica's ledger reaches target blocks.
func (e *Env) WaitHeight(cluster, idx int, target uint64, timeout time.Duration) error {
	return waitFor(timeout, 25*time.Millisecond, func() error {
		if h := e.Height(cluster, idx); h < target {
			return fmt.Errorf("chaos: replica (%d,%d) stuck at height %d, want ≥ %d", cluster, idx, h, target)
		}
		return nil
	})
}

// WaitCommitted polls until the loader has committed at least target batches.
func (e *Env) WaitCommitted(l *Loader, target uint64, timeout time.Duration) error {
	return waitFor(timeout, 25*time.Millisecond, func() error {
		if n := l.Committed(); n < target {
			return fmt.Errorf("chaos: load stuck at %d committed batches, want ≥ %d", n, target)
		}
		return nil
	})
}

// WaitConverged polls until every live honest replica reports the same
// non-zero ledger height and head, then verifies every chain. This is the
// combined safety+liveness postcondition of each scenario.
func (e *Env) WaitConverged(timeout time.Duration) error {
	return waitFor(timeout, 50*time.Millisecond, e.converged)
}

// WaitQuiet polls until the deployment is converged and has stayed at the
// same height for the quiet period: every consensus instance that was in
// flight when the loads stopped has run its course (an open round is filled
// within a few milliseconds, and executing it moves every ledger). Scenarios
// use it before a fault that must not coincide with a decision being made.
func (e *Env) WaitQuiet(quiet, timeout time.Duration) error {
	var height uint64
	var since time.Time
	return waitFor(timeout, 25*time.Millisecond, func() error {
		err := e.converged()
		if h := e.MaxHeight(); err != nil || h != height {
			height, since = h, time.Now()
		} else if time.Since(since) >= quiet {
			return nil
		}
		if err == nil {
			err = fmt.Errorf("chaos: height still moving at %d", height)
		}
		return err
	})
}

func (e *Env) converged() error {
	live := e.live()
	if len(live) == 0 {
		return fmt.Errorf("chaos: no live replicas")
	}
	ref := e.Fab.Replica(live[0]).Ledger()
	if ref.Height() == 0 {
		return fmt.Errorf("chaos: %v has an empty ledger", live[0])
	}
	for _, id := range live[1:] {
		l := e.Fab.Replica(id).Ledger()
		if l.Height() != ref.Height() || l.Head() != ref.Head() {
			return fmt.Errorf("chaos: %v at height %d head %s, %v at height %d head %s",
				live[0], ref.Height(), ref.Head().Short(), id, l.Height(), l.Head().Short())
		}
	}
	for _, id := range live {
		if err := e.Fab.Replica(id).Ledger().Verify(); err != nil {
			return fmt.Errorf("chaos: %v: %w", id, err)
		}
	}
	return nil
}

// AssertPrefixes checks the pure safety property mid-fault through the
// cross-node prefix auditor (ledger.AuditPrefixes): every pair of honest
// replica ledgers — crashed ones included; their frozen state must never
// contradict the live chain — verifies and is prefix-ordered. Compromised
// replicas are excluded: safety is a claim about honest replicas only.
func (e *Env) AssertPrefixes() error {
	ledgers := make(map[string]*ledger.Ledger)
	for _, id := range e.Topo.AllReplicas() {
		if e.byz[id] == nil {
			ledgers[id.String()] = e.Fab.Replica(id).Ledger()
		}
	}
	if err := ledger.AuditPrefixes(ledgers); err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	return nil
}

// AssertCertificates checks what honest replicas keep, the way Run's audit
// checks what they send: every block of every honest ledger must carry a
// commit certificate that verifies against its origin cluster's membership —
// n−f valid signatures, whoever checked them when the block was executed.
// Only meaningful after StopAll.
func (e *Env) AssertCertificates() error {
	audit := newCertAudit(e.Topo)
	for _, id := range e.Topo.AllReplicas() {
		if e.byz[id] != nil {
			continue
		}
		l := e.Fab.Replica(id).Ledger()
		for h := l.Base() + 1; h <= l.Height(); h++ {
			b := l.Block(h)
			cert, _ := b.Cert.(*pbft.Certificate)
			if cert == nil {
				return fmt.Errorf("chaos: %v keeps block %d without a certificate", id, h)
			}
			audit.check(id, b.Cluster, cert, fmt.Sprintf("keeps, in block %d,", h))
		}
	}
	return audit.err()
}

// View returns a replica's local PBFT view. Only meaningful after StopAll
// (the worker is halted, so the read cannot race).
func (e *Env) View(cluster, idx int) uint64 {
	return e.Fab.Replica(e.ReplicaID(cluster, idx)).Local().View()
}

// StopLoads stops every loader started via StartLoad.
func (e *Env) StopLoads() {
	e.mu.Lock()
	loaders := e.loaders
	e.loaders = nil
	e.mu.Unlock()
	for _, l := range loaders {
		l.Stop()
	}
}

// StopAll stops loads and shuts the deployment down (idempotent). After it
// returns, per-replica state (views, ledgers) can be read race-free.
func (e *Env) StopAll() {
	e.StopLoads()
	e.mu.Lock()
	done := e.stopped
	e.stopped = true
	e.mu.Unlock()
	if !done {
		e.Fab.Stop()
	}
}

// Loader submits small transaction batches from a background goroutine until
// stopped, tolerating per-batch timeouts (faults are expected to fail some
// submissions; the stream continues so liveness is observable).
type Loader struct {
	cl        *fabric.Client
	committed atomic.Uint64
	stopped   atomic.Bool
	done      chan struct{}
}

// StartLoad opens client index i (home cluster i mod z) and starts its
// submission loop.
func (e *Env) StartLoad(client int) *Loader {
	l := &Loader{cl: e.Fab.NewClient(client), done: make(chan struct{})}
	e.mu.Lock()
	e.loaders = append(e.loaders, l)
	e.mu.Unlock()
	go func() {
		defer close(l.done)
		for k := 0; !l.stopped.Load(); k++ {
			txns := []types.Transaction{
				{Key: uint64(client)<<32 | uint64(2*k), Value: uint64(k)},
				{Key: uint64(client)<<32 | uint64(2*k+1), Value: uint64(k)},
			}
			if err := l.cl.Submit(txns, 8*time.Second); err == nil {
				l.committed.Add(1)
			}
		}
	}()
	return l
}

// Committed returns how many batches the loader has seen confirmed.
func (l *Loader) Committed() uint64 { return l.committed.Load() }

// Stop halts the loader, unblocking any in-flight submission, and returns
// the number of committed batches. Idempotent.
func (l *Loader) Stop() uint64 {
	l.stopped.Store(true)
	l.cl.Close() // idempotent; unblocks a Submit in flight
	<-l.done
	return l.committed.Load()
}
