// Package byzantine is the scripted-malice adversary harness: it turns up to
// f replicas per cluster into attackers that execute deterministic attack
// scripts against the live protocol, so the chaos suite (internal/chaos) can
// prove GeoBFT's safety and liveness claims against actual Byzantine
// behaviour instead of only crashes and partitions.
//
// An Adversary wraps one compromised replica. It does not replace the
// replica's state machine — the honest core keeps running — but every
// message the replica sends passes through the adversary's Script, which can
// suppress it, tamper with it, equivocate (different payloads to different
// recipients), or inject extra forged traffic riding alongside. The
// interception point is transport.Tap, so the same attack runs over the
// in-process transport and over TCP.
//
// The adversary signs with the compromised replica's own key (its Suite is
// provisioned from the same deterministic directory the deployment uses) —
// exactly the power a real Byzantine replica has. No seam in this package
// lets a script forge another replica's signature; attacks that need one
// (the >f coalitions of the harness's own teeth tests) are built by giving
// the fleet more than f members.
//
// Scripts are deterministic: every decision follows from the message being
// intercepted and script-local counters, so a failing scenario replays
// byte-for-byte from its seed (see the chaos suite's seed matrix).
package byzantine

import (
	"sync"
	"sync/atomic"

	"resilientdb/internal/config"
	"resilientdb/internal/crypto"
	"resilientdb/internal/transport"
	"resilientdb/internal/types"
)

// Script is one deterministic attack behaviour. Rewrite inspects a single
// outbound message from the compromised replica and returns the deliveries
// to perform instead (plus true), or false to send the original untouched.
// Returning (nil, true) suppresses the message. Rewrite is called
// concurrently from the node's worker, input and persister goroutines;
// implementations guard their state with their own mutex.
type Script interface {
	// Name identifies the attack in logs and scenario descriptions.
	Name() string
	// Rewrite intercepts one outbound message (see the interface comment).
	Rewrite(a *Adversary, to types.NodeID, msg types.Message) ([]transport.Delivery, bool)
}

// Stats counts what an adversary actually did, so scenarios can assert the
// attack really ran (an attack that never fired proves nothing).
type Stats struct {
	// Intercepted counts outbound messages the script rewrote, suppressed,
	// or rode an injection on (pass-throughs are not counted).
	Intercepted uint64
	// Forked counts equivocated proposals (one per forked sequence number).
	Forked uint64
	// Tampered counts messages forwarded with forged or garbled content.
	Tampered uint64
	// Injected counts forged messages fabricated from nothing.
	Injected uint64
	// Suppressed counts messages silently dropped per victim.
	Suppressed uint64
	// Spammed counts protocol-shaped spam messages (view-change campaigns,
	// stale remote view-change requests) sent alongside real traffic.
	Spammed uint64
}

// Fleet is a coalition of adversaries sharing one coordination blackboard:
// scripts running on different compromised replicas of the same cluster read
// and write it to coordinate (an equivocating primary publishes its forked
// proposals; a fellow double-voter signs votes for the fork). One Fleet
// serves a whole deployment; its Intercept method is the transport.Tap hook.
type Fleet struct {
	seed int64

	mu    sync.Mutex
	advs  map[types.NodeID]*Adversary
	forks map[forkKey]*fork
}

// NewFleet returns an empty coalition. The seed keeps script-internal
// randomness (where a script uses any) reproducible; all built-in scripts
// are counter-driven and deterministic regardless.
func NewFleet(seed int64) *Fleet {
	return &Fleet{
		seed:  seed,
		advs:  make(map[types.NodeID]*Adversary),
		forks: make(map[forkKey]*fork),
	}
}

// Adversary compromises one replica of the topology with the given script
// and registers it with the fleet. The adversary provisions its own signing
// suite from the deployment's deterministic key directory (mode must match
// the deployment's crypto mode). It starts disarmed: traffic passes through
// untouched until Arm is called, so scenarios can warm the deployment up
// honestly first.
func (f *Fleet) Adversary(topo config.Topology, mode crypto.Mode, id types.NodeID, script Script) *Adversary {
	dir := crypto.NewDirectory(mode, topo.AllReplicas())
	a := &Adversary{
		id:     id,
		topo:   topo,
		suite:  crypto.NewSuite(dir, id, crypto.FreeCosts(), nil),
		fleet:  f,
		script: script,
	}
	f.mu.Lock()
	f.advs[id] = a
	f.mu.Unlock()
	return a
}

// Intercept is the transport.Tap hook for the whole fleet: sends from
// compromised replicas are routed through their adversary's script, honest
// senders pass through.
func (f *Fleet) Intercept(from, to types.NodeID, msg types.Message) ([]transport.Delivery, bool) {
	f.mu.Lock()
	a := f.advs[from]
	f.mu.Unlock()
	if a == nil {
		return nil, false
	}
	return a.Rewrite(to, msg)
}

// forkKey identifies one equivocated proposal on the fleet blackboard.
type forkKey struct {
	cluster types.ClusterID
	view    uint64
	seq     uint64
}

// fork is the equivocated twin of a proposal: the batch (and its digest) the
// coalition shows to the victims instead of the real one.
type fork struct {
	digest types.Digest
	batch  types.Batch
}

// publishFork records the twin for (cluster, view, seq) if none exists yet
// and returns the blackboard entry (the existing one on a duplicate publish).
func (f *Fleet) publishFork(k forkKey, fk *fork) *fork {
	f.mu.Lock()
	defer f.mu.Unlock()
	if cur := f.forks[k]; cur != nil {
		return cur
	}
	f.forks[k] = fk
	return fk
}

// fork returns the blackboard entry for (cluster, view, seq), or nil.
func (f *Fleet) fork(k forkKey) *fork {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.forks[k]
}

// Adversary is one compromised replica's attack runtime: the script, the
// replica's own signing capability, and the action counters. It is handed to
// Script.Rewrite on every intercepted message.
type Adversary struct {
	id     types.NodeID
	topo   config.Topology
	suite  *crypto.Suite
	fleet  *Fleet
	script Script
	armed  atomic.Bool

	intercepted atomic.Uint64
	forked      atomic.Uint64
	tampered    atomic.Uint64
	injected    atomic.Uint64
	suppressed  atomic.Uint64
	spammed     atomic.Uint64
}

// ID returns the compromised replica's identifier.
func (a *Adversary) ID() types.NodeID { return a.id }

// Topo returns the deployment topology the adversary operates in.
func (a *Adversary) Topo() config.Topology { return a.topo }

// Cluster returns the compromised replica's cluster.
func (a *Adversary) Cluster() types.ClusterID { return a.topo.ClusterOf(a.id) }

// Suite returns the compromised replica's own signing suite — the full
// cryptographic power a Byzantine replica legitimately has, and nothing
// more.
func (a *Adversary) Suite() *crypto.Suite { return a.suite }

// Script returns the attack script this adversary runs.
func (a *Adversary) Script() Script { return a.script }

// Arm activates the script. Before Arm (and after Disarm) every message
// passes through untouched, so scenarios can prove the deployment healthy
// before the attack and quiesce it after.
func (a *Adversary) Arm() { a.armed.Store(true) }

// Disarm deactivates the script.
func (a *Adversary) Disarm() { a.armed.Store(false) }

// Armed reports whether the script is active.
func (a *Adversary) Armed() bool { return a.armed.Load() }

// Rewrite offers one outbound message to the script (the per-adversary leg
// of Fleet.Intercept). Disarmed adversaries pass everything through.
func (a *Adversary) Rewrite(to types.NodeID, msg types.Message) ([]transport.Delivery, bool) {
	if !a.armed.Load() {
		return nil, false
	}
	ds, intercepted := a.script.Rewrite(a, to, msg)
	if intercepted {
		a.intercepted.Add(1)
	}
	return ds, intercepted
}

// Stats snapshots the adversary's action counters. Safe to call while the
// deployment is running.
func (a *Adversary) Stats() Stats {
	return Stats{
		Intercepted: a.intercepted.Load(),
		Forked:      a.forked.Load(),
		Tampered:    a.tampered.Load(),
		Injected:    a.injected.Load(),
		Suppressed:  a.suppressed.Load(),
		Spammed:     a.spammed.Load(),
	}
}

// LocalMembers returns the members of the adversary's own cluster.
func (a *Adversary) LocalMembers() []types.NodeID {
	return a.topo.ClusterMembers(int(a.Cluster()))
}

// DefaultVictim returns the highest-indexed member of the adversary's
// cluster other than itself: the replica the built-in scripts equivocate to,
// starve, or feed forged state. Keeping the rule positional (not
// configurable per script instance) lets a coalition agree on the victim
// without communicating.
func (a *Adversary) DefaultVictim() types.NodeID {
	members := a.LocalMembers()
	v := members[len(members)-1]
	if v == a.id {
		v = members[len(members)-2]
	}
	return v
}

// DefaultDetector returns the lowest-indexed local member that is neither
// the adversary nor the default victim: the honest replica an equivocating
// primary deliberately shows both conflicting proposals so that provable
// misbehaviour is observed (pbft treats conflicting preprepares as grounds
// for a view change).
func (a *Adversary) DefaultDetector() types.NodeID {
	victim := a.DefaultVictim()
	for _, m := range a.LocalMembers() {
		if m != a.id && m != victim {
			return m
		}
	}
	return victim // unreachable for n ≥ 3
}
