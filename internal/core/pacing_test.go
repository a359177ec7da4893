package core

import (
	"testing"
	"time"

	"resilientdb/internal/config"
	"resilientdb/internal/crypto"
	"resilientdb/internal/detsim"
	"resilientdb/internal/transport"
	"resilientdb/internal/types"
)

// No-op pacing tests. They drive a whole z×n deployment of real Replicas on
// the deterministic simulator (detsim) with instantaneous links and free crypto, on a
// manual clock: RunFor(0) runs every exchange a step sets off, and time moves
// only when a test advances it with RunFor(d), so every interleaving below is
// exact and repeats. Timers due at one instant fire in arming order, each
// with the messages it sends queued behind the timers already due.

// clientIdentities is the number of client identities a testNet provisions.
const clientIdentities = 12

// testNet is a deployment on the manual clock. Client identity i (home
// cluster i mod z) sends one-transaction requests to its cluster's primary,
// only when told (submit), unless a test gives it a window.
type testNet struct {
	*detsim.Network
	t       *testing.T
	topo    config.Topology
	reps    map[types.NodeID]*Replica
	clients []*detsim.Client
	// held is what the hold intercept parked; unheld is the intercept it
	// was installed over.
	held   []heldMsg
	unheld transport.InterceptFn
}

type heldMsg struct {
	from, to types.NodeID
	msg      types.Message
}

func newTestNet(t *testing.T, z, n int, cfg Config) *testNet {
	t.Helper()
	topo := config.NewTopology(z, n)
	net := &testNet{Network: detsim.New(detsim.Options{Mode: crypto.Fast}), t: t, topo: topo, reps: map[types.NodeID]*Replica{}}
	for _, id := range topo.AllReplicas() {
		c := cfg
		c.Topo, c.Self, c.Records = topo, id, 100
		r := NewReplica(c)
		net.reps[id] = r
		net.AddNode(id, 0, r)
	}
	for i := 0; i < clientIdentities; i++ {
		c := &detsim.Client{Group: topo.ClusterMembers(i % z), BatchSize: 1}
		net.clients = append(net.clients, c)
		net.AddNode(config.ClientID(i), 0, c)
	}
	net.Start()
	return net
}

// client returns client identity idx.
func (n *testNet) client(idx int) *detsim.Client { return n.clients[idx] }

// submit has each client send its next request, in order, at the current
// instant; drain delivers them.
func (n *testNet) submit(cs ...*detsim.Client) {
	for _, c := range cs {
		n.At(n.Now(), c.ID(), c.Submit)
	}
}

// deliver hands one message to a replica as if from the given sender.
func (n *testNet) deliver(from, to types.NodeID, m types.Message) {
	n.At(n.Now(), to, func() { n.reps[to].Receive(from, m) })
	n.RunFor(0)
}

// hold parks every send matching park until unhold or release; the rest go
// to the intercept installed before.
func (n *testNet) hold(park func(from, to types.NodeID, m types.Message) bool) {
	next := n.Intercept
	n.unheld = next
	n.Intercept = func(from, to types.NodeID, m types.Message) ([]transport.Delivery, bool) {
		if park(from, to, m) {
			n.held = append(n.held, heldMsg{from, to, m})
			return nil, true
		}
		if next != nil {
			return next(from, to, m)
		}
		return nil, false
	}
}

// unhold stops holding and returns what was held, undelivered.
func (n *testNet) unhold() []heldMsg {
	held := n.held
	n.Intercept, n.unheld, n.held = n.unheld, nil, nil
	return held
}

// release stops holding and delivers everything held.
func (n *testNet) release() {
	for _, h := range n.unhold() {
		h := h
		n.At(n.Now(), h.to, func() { n.reps[h.to].Receive(h.from, h.msg) })
	}
	n.RunFor(0)
}

// observe calls fn on every message transmitted from now on, after the
// observers installed before.
func (n *testNet) observe(fn func(from, to types.NodeID, m types.Message)) {
	prev := n.TraceSend
	n.TraceSend = func(from, to types.NodeID, m types.Message, size int, sameRegion bool) {
		if prev != nil {
			prev(from, to, m, size, sameRegion)
		}
		fn(from, to, m)
	}
}

// graceTimers counts armed no-op grace timers across the deployment.
func (n *testNet) graceTimers() int {
	armed := 0
	for _, r := range n.reps {
		if r.graceTimer != nil {
			armed++
		}
	}
	return armed
}

func (n *testNet) primary(cluster int) *Replica {
	for _, id := range n.topo.ClusterMembers(cluster) {
		if n.reps[id].IsPrimary() {
			return n.reps[id]
		}
	}
	n.t.Fatalf("cluster %d has no primary", cluster)
	return nil
}

// assertExecuted checks that every replica executed exactly round rounds.
func (n *testNet) assertExecuted(rounds uint64) {
	n.t.Helper()
	for _, id := range n.topo.AllReplicas() {
		if got := n.reps[id].ExecutedRound(); got != rounds {
			n.t.Fatalf("t=%v: replica %v executed round %d, want %d", n.Now(), id, got, rounds)
		}
	}
}

// noOpsAfter counts cluster c's no-op blocks in rounds beyond warm.
func (n *testNet) noOpsAfter(c int, warm uint64) (noops, blocks int) {
	l := n.reps[0].Ledger()
	for h := uint64(1); h <= l.Height(); h++ {
		if b := l.Block(h); int(b.Cluster) == c && b.Round > warm {
			blocks++
			if b.Batch.NoOp {
				noops++
			}
		}
	}
	return noops, blocks
}

// TestPacingSymmetricLoadFillsRoundsWithClientBatches: both clusters carry
// closed-loop load, but cluster 1's clients answer a millisecond later than
// cluster 0's — so for every round, cluster 0's share reaches cluster 1's
// primary while its pending queue is empty, which is where the unpaced fabric
// proposed a no-op each time. Paced, the open rounds wait out cluster 1's
// clients: no no-op after warm-up, and no primary runs further ahead of
// execution than its cluster has identities.
func TestPacingSymmetricLoadFillsRoundsWithClientBatches(t *testing.T) {
	const identities, perClient = 4, 50
	const warm = 2 * identities // rounds
	net := newTestNet(t, 2, 4, Config{})
	for i := 0; i < 2*identities; i++ {
		think := 500 * time.Microsecond
		if i%2 == 1 {
			think += time.Millisecond // < noopGrace
		}
		c := net.client(i)
		c.Window, c.Think, c.Total = 1, think, perClient
		net.submit(c)
	}
	for step := 0; step < 4000 && net.reps[0].ExecutedRound() < identities*perClient; step++ {
		net.RunFor(100 * time.Microsecond)
		for c := 0; c < 2; c++ {
			p := net.primary(c)
			if ahead := p.assignedRounds() - p.ExecutedRound(); p.ExecutedRound() > warm && ahead > identities {
				t.Fatalf("t=%v: cluster %d primary has %d rounds in flight with %d identities", net.Now(), c, ahead, identities)
			}
		}
	}
	for _, c := range net.clients[:2*identities] {
		if c.Completed() != perClient {
			t.Fatalf("client %v confirmed %d/%d", c.ID(), c.Completed(), perClient)
		}
	}
	for c := 0; c < 2; c++ {
		if noops, blocks := net.noOpsAfter(c, warm); noops != 0 || blocks == 0 {
			t.Errorf("cluster %d: %d no-ops in %d blocks after warm-up, want 0", c, noops, blocks)
		}
	}
	st := net.primary(1).RoundStats()
	if st.GracesArmed == 0 || st.GraceFilled == 0 {
		t.Errorf("cluster 1's primary never paced: %+v", st)
	}
	if got := net.reps[0].RoundStats(); got.NoOpBatches+got.ClientBatches != net.reps[0].Ledger().Height() {
		t.Errorf("round stats %+v do not add up to ledger height %d", got, net.reps[0].Ledger().Height())
	}
}

// TestPacingIdleClusterFillsAtOnce: one-sided load. A cluster that has never
// carried a client batch fills every round the moment the loaded cluster's
// share arrives — each batch executes in the instant it was submitted, no
// grace is ever armed. A cluster whose clients went quiet pays one grace and
// is idle again from then on.
func TestPacingIdleClusterFillsAtOnce(t *testing.T) {
	net := newTestNet(t, 2, 4, Config{})
	a, b := net.client(0), net.client(1)
	for round := uint64(1); round <= 10; round++ {
		net.submit(a)
		net.RunFor(0)
		net.assertExecuted(round) // zero added delay: the clock never moved
	}
	if noops, blocks := net.noOpsAfter(1, 0); noops != 10 || blocks != 10 {
		t.Fatalf("idle cluster filled %d of %d rounds with no-ops, want 10 of 10", noops, blocks)
	}
	for id, r := range net.reps {
		if st := r.RoundStats(); st.GracesArmed != 0 {
			t.Fatalf("replica %v armed %d graces under one-sided load", id, st.GracesArmed)
		}
	}

	// Cluster 1 carries one batch, then its client goes quiet.
	net.submit(a, b)
	net.RunFor(0)
	net.assertExecuted(11)
	net.RunFor(time.Millisecond)
	net.submit(a)
	net.RunFor(0)
	net.assertExecuted(11) // cluster 1 executed a client batch 1 ms ago: round 12 waits
	if net.graceTimers() != 1 {
		t.Fatalf("%d grace timers armed, want 1", net.graceTimers())
	}
	net.RunFor(noopGrace)
	net.assertExecuted(12) // bounded by one grace
	for round := uint64(13); round <= 20; round++ {
		net.submit(a)
		net.RunFor(0)
		net.assertExecuted(round) // idle again: at once
	}
	if st := net.primary(1).RoundStats(); st.GracesArmed != 1 || st.GraceFilled != 0 {
		t.Errorf("quiet cluster's primary: %+v, want exactly one grace that filled nothing", st)
	}
}

// TestPacingGraceAcrossViewChange: a grace is pending at cluster 1's primary
// when the cluster changes view. The timer first fires mid-view-change at the
// old primary (a no-op), the new primary fills the open round from
// onLocalViewChange without waiting, and the deployment keeps executing.
func TestPacingGraceAcrossViewChange(t *testing.T) {
	net := newTestNet(t, 2, 4, Config{})
	a, b := net.client(0), net.client(1)
	net.submit(a, b)
	net.RunFor(0)
	net.assertExecuted(1)
	old := net.primary(1)
	net.submit(a) // round 2: cluster 1 has load (executed just now) and nothing pending
	net.RunFor(0)
	net.assertExecuted(1)
	if old.graceTimer == nil || net.graceTimers() != 1 {
		t.Fatalf("want exactly the old primary's grace armed, have %d", net.graceTimers())
	}

	old.Local().ForceViewChange() // alone: no quorum yet, so it sits mid-view-change
	net.RunFor(0)
	net.RunFor(noopGrace) // the grace fires there
	if old.graceTimer != nil {
		t.Fatal("fired grace timer still recorded as armed")
	}
	net.assertExecuted(1) // and proposed nothing

	for _, id := range net.topo.ClusterMembers(1) {
		net.reps[id].Local().ForceViewChange()
	}
	net.RunFor(0)
	if p := net.primary(1); p == old || p.Local().InViewChange() {
		t.Fatalf("view change did not install a new primary (view %d)", p.Local().View())
	}
	net.assertExecuted(2) // filled by the new primary, the clock did not move
	if noops, _ := net.noOpsAfter(1, 1); noops != 1 {
		t.Fatalf("round 2 of cluster 1 is not a no-op")
	}

	// Nothing is wedged: the old primary forwards, the new one orders.
	net.RunFor(noopGrace)
	net.submit(a, b)
	net.RunFor(0)
	net.assertExecuted(3)
	if net.graceTimers() != 0 {
		t.Errorf("%d grace timers left armed", net.graceTimers())
	}
}

// TestPacingOneTimerAndFullWindow: however many shares arrive, one primary
// arms one timer; when it fires against a full PBFT window the fill queues
// behind the window instead of spinning, drains once the window moves, and
// the next open round arms a fresh timer.
func TestPacingOneTimerAndFullWindow(t *testing.T) {
	// CheckpointInterval 1 makes the PBFT window 4 sequences wide.
	net := newTestNet(t, 2, 4, Config{CheckpointInterval: 1})
	bs := []*detsim.Client{net.client(1), net.client(3), net.client(5), net.client(7)}
	// Cluster 1's backups hear nothing for now: its primary assigns four
	// client batches (window full) and none of them commits.
	p := net.primary(1)
	net.hold(func(from, to types.NodeID, _ types.Message) bool {
		return from == p.cfg.Self && !to.IsClient() && to != p.cfg.Self && int(net.topo.ClusterOf(to)) == 1
	})
	net.submit(bs...)
	net.RunFor(0)
	if p.assignedRounds() != 4 || p.local.QueueLen() != 0 {
		t.Fatalf("setup: assigned %d queued %d", p.assignedRounds(), p.local.QueueLen())
	}
	for i := 0; i < 6; i++ { // cluster 0 certifies rounds 1..6; each share is new evidence
		net.submit(net.client(2 * i))
		net.RunFor(0)
	}
	if p.evidencedRound != 6 {
		t.Fatalf("setup: cluster 1's primary saw evidence of round %d, want 6", p.evidencedRound)
	}
	if st := p.RoundStats(); st.GracesArmed != 1 || net.graceTimers() != 1 {
		t.Fatalf("six shares armed %d graces (%d timers), want 1", st.GracesArmed, net.graceTimers())
	}

	net.RunFor(noopGrace) // fires against the full window
	if p.graceTimer != nil || p.assignedRounds() != 6 || p.local.QueueLen() != 2 {
		t.Fatalf("after the grace: timer armed=%v assigned %d queued %d, want no timer, 6, 2",
			p.graceTimer != nil, p.assignedRounds(), p.local.QueueLen())
	}
	net.assertExecuted(0)

	net.release() // the window moves: the queued fills go out, everything executes
	net.assertExecuted(6)
	if noops, _ := net.noOpsAfter(1, 0); noops != 2 {
		t.Fatalf("cluster 1 filled %d rounds with no-ops, want 2 (rounds 5 and 6)", noops)
	}

	net.submit(net.client(0)) // round 7: cluster 1 has load again, so a fresh grace
	net.RunFor(0)
	if st := p.RoundStats(); st.GracesArmed != 2 || net.graceTimers() != 1 {
		t.Fatalf("next open round: %d graces armed (%d timers), want 2 (1)", st.GracesArmed, net.graceTimers())
	}
	net.submit(bs[0]) // a client batch takes it before the grace runs out
	net.RunFor(0)
	net.assertExecuted(7)
	net.RunFor(noopGrace)
	if st := p.RoundStats(); st.GraceFilled != 1 || p.graceTimer != nil {
		t.Errorf("grace that a client batch beat: %+v, timer armed=%v", st, p.graceTimer != nil)
	}
	if noops, _ := net.noOpsAfter(1, 6); noops != 0 {
		t.Errorf("round 7 of cluster 1 is a no-op")
	}
}
