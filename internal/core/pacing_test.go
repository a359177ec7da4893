package core

import (
	"math/rand"
	"testing"
	"time"

	"resilientdb/internal/config"
	"resilientdb/internal/crypto"
	"resilientdb/internal/pbft"
	"resilientdb/internal/proto"
	"resilientdb/internal/types"
)

// No-op pacing tests. They drive a whole z×n deployment of real Replicas on
// one goroutine through a proto.Env with a manual clock: messages travel in
// zero time through one FIFO queue, timers fire only when the test advances
// the clock, so every interleaving below is exact and repeats.

type manualMsg struct {
	from, to types.NodeID
	msg      types.Message
}

type manualTimer struct {
	at      time.Duration
	fn      func()
	stopped bool
}

func (t *manualTimer) Stop() { t.stopped = true }

type manualNet struct {
	t       *testing.T
	topo    config.Topology
	dir     *crypto.Directory
	now     time.Duration
	reps    map[types.NodeID]*Replica
	clients map[types.NodeID]*manualClient
	queue   []manualMsg
	timers  []*manualTimer
	// hold, if set, parks matching messages until release.
	hold func(m manualMsg) bool
	held []manualMsg
	// tamper, if set, may replace a message on its way to one recipient (a
	// Byzantine sender's script); it must not modify the original, which the
	// other recipients share.
	tamper func(m manualMsg) types.Message
	// sent, if set, observes every message as it is delivered.
	sent func(m manualMsg)
}

type manualEnv struct {
	net   *manualNet
	id    types.NodeID
	suite *crypto.Suite
	rng   *rand.Rand
}

func (e *manualEnv) ID() types.NodeID     { return e.id }
func (e *manualEnv) Now() time.Duration   { return e.net.now }
func (e *manualEnv) Suite() *crypto.Suite { return e.suite }
func (e *manualEnv) Rand() *rand.Rand     { return e.rng }
func (e *manualEnv) Send(to types.NodeID, m types.Message) {
	e.net.queue = append(e.net.queue, manualMsg{e.id, to, m})
}
func (e *manualEnv) SetTimer(d time.Duration, fn func()) proto.Timer {
	t := &manualTimer{at: e.net.now + d, fn: fn}
	e.net.timers = append(e.net.timers, t)
	return t
}

// manualClient is one closed-loop client identity: one request in flight,
// the next one think after f+1 replicas of its cluster replied.
type manualClient struct {
	net     *manualNet
	id      types.NodeID
	cluster int
	think   time.Duration
	total   int // requests to submit; 0 = submit only when the test says so
	suite   *crypto.Suite
	seq     uint64
	acks    map[types.NodeID]bool
	done    int
}

func (c *manualClient) submit() {
	c.seq++
	c.acks = map[types.NodeID]bool{}
	b := types.Batch{Client: c.id, Seq: c.seq, Txns: []types.Transaction{{Key: uint64(c.id), Value: c.seq}}}
	req := &pbft.Request{Batch: b, Sig: c.suite.Sign(pbft.RequestPayload(&b))}
	c.net.queue = append(c.net.queue, manualMsg{c.id, c.net.topo.ReplicaID(c.cluster, 0), req})
}

func (c *manualClient) onReply(from types.NodeID, rep *proto.Reply) {
	if rep.ClientSeq != c.seq || c.acks[from] {
		return
	}
	c.acks[from] = true
	if len(c.acks) != c.net.topo.F()+1 {
		return
	}
	c.done++
	if int(c.seq) < c.total {
		c.net.timers = append(c.net.timers, &manualTimer{at: c.net.now + c.think, fn: c.submit})
	}
}

func newManualNet(t *testing.T, z, n int, cfg Config) *manualNet {
	t.Helper()
	topo := config.NewTopology(z, n)
	dir := crypto.NewDirectory(crypto.Fast, topo.AllReplicas())
	net := &manualNet{t: t, topo: topo, dir: dir, reps: map[types.NodeID]*Replica{}, clients: map[types.NodeID]*manualClient{}}
	for _, id := range topo.AllReplicas() {
		c := cfg
		c.Topo, c.Self, c.Records = topo, id, 100
		r := NewReplica(c)
		net.reps[id] = r
		r.InitEnv(&manualEnv{net: net, id: id, suite: crypto.NewSuite(dir, id, crypto.FreeCosts(), nil),
			rng: rand.New(rand.NewSource(int64(id) + 1))})
	}
	return net
}

// client adds identity idx (home cluster idx mod z).
func (n *manualNet) client(idx int, think time.Duration, total int) *manualClient {
	id := config.ClientID(idx)
	c := &manualClient{net: n, id: id, cluster: idx % n.topo.Clusters, think: think, total: total,
		suite: crypto.NewSuite(n.dir, id, crypto.FreeCosts(), nil)}
	n.clients[c.id] = c
	return c
}

// drain delivers queued messages until the deployment is quiet.
func (n *manualNet) drain() {
	for len(n.queue) > 0 {
		m := n.queue[0]
		n.queue = n.queue[1:]
		if n.hold != nil && n.hold(m) {
			n.held = append(n.held, m)
			continue
		}
		if n.tamper != nil {
			m.msg = n.tamper(m)
		}
		if n.sent != nil {
			n.sent(m)
		}
		if r := n.reps[m.to]; r != nil {
			r.Receive(m.from, m.msg)
		} else if c := n.clients[m.to]; c != nil {
			c.onReply(m.from, m.msg.(*proto.Reply))
		}
	}
}

// release stops holding and delivers everything held.
func (n *manualNet) release() {
	n.hold = nil
	n.queue = append(n.queue, n.held...)
	n.held = nil
	n.drain()
}

// advance moves the clock forward by d, firing due timers in time order
// (arming order breaks ties) and draining after each.
func (n *manualNet) advance(d time.Duration) {
	n.drain()
	target := n.now + d
	for {
		var next *manualTimer
		live := n.timers[:0]
		for _, t := range n.timers {
			if t.stopped {
				continue
			}
			live = append(live, t)
			if t.at <= target && (next == nil || t.at < next.at) {
				next = t
			}
		}
		n.timers = live
		if next == nil {
			break
		}
		next.stopped = true
		n.now = next.at
		next.fn()
		n.drain()
	}
	n.now = target
}

// graceTimers counts armed no-op grace timers across the deployment.
func (n *manualNet) graceTimers() int {
	armed := 0
	for _, r := range n.reps {
		if r.graceTimer != nil {
			armed++
		}
	}
	return armed
}

func (n *manualNet) primary(cluster int) *Replica {
	for _, id := range n.topo.ClusterMembers(cluster) {
		if n.reps[id].IsPrimary() {
			return n.reps[id]
		}
	}
	n.t.Fatalf("cluster %d has no primary", cluster)
	return nil
}

// assertExecuted checks that every replica executed exactly round rounds.
func (n *manualNet) assertExecuted(rounds uint64) {
	n.t.Helper()
	for _, id := range n.topo.AllReplicas() {
		if got := n.reps[id].ExecutedRound(); got != rounds {
			n.t.Fatalf("t=%v: replica %v executed round %d, want %d", n.now, id, got, rounds)
		}
	}
}

// noOpsAfter counts cluster c's no-op blocks in rounds beyond warm.
func (n *manualNet) noOpsAfter(c int, warm uint64) (noops, blocks int) {
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
	net := newManualNet(t, 2, 4, Config{})
	for i := 0; i < 2*identities; i++ {
		think := 500 * time.Microsecond
		if i%2 == 1 {
			think += time.Millisecond // < noopGrace
		}
		net.client(i, think, perClient).submit()
	}
	for step := 0; step < 4000 && net.reps[0].ExecutedRound() < identities*perClient; step++ {
		net.advance(100 * time.Microsecond)
		for c := 0; c < 2; c++ {
			p := net.primary(c)
			if ahead := p.assignedRounds() - p.ExecutedRound(); p.ExecutedRound() > warm && ahead > identities {
				t.Fatalf("t=%v: cluster %d primary has %d rounds in flight with %d identities", net.now, c, ahead, identities)
			}
		}
	}
	for _, c := range net.clients {
		if c.done != perClient {
			t.Fatalf("client %v confirmed %d/%d", c.id, c.done, perClient)
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
	net := newManualNet(t, 2, 4, Config{})
	a, b := net.client(0, 0, 0), net.client(1, 0, 0)
	for round := uint64(1); round <= 10; round++ {
		a.submit()
		net.drain()
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
	a.submit()
	b.submit()
	net.drain()
	net.assertExecuted(11)
	net.advance(time.Millisecond)
	a.submit()
	net.drain()
	net.assertExecuted(11) // cluster 1 executed a client batch 1 ms ago: round 12 waits
	if net.graceTimers() != 1 {
		t.Fatalf("%d grace timers armed, want 1", net.graceTimers())
	}
	net.advance(noopGrace)
	net.assertExecuted(12) // bounded by one grace
	for round := uint64(13); round <= 20; round++ {
		a.submit()
		net.drain()
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
	net := newManualNet(t, 2, 4, Config{})
	a, b := net.client(0, 0, 0), net.client(1, 0, 0)
	a.submit()
	b.submit()
	net.drain()
	net.assertExecuted(1)
	old := net.primary(1)
	a.submit() // round 2: cluster 1 has load (executed just now) and nothing pending
	net.drain()
	net.assertExecuted(1)
	if old.graceTimer == nil || net.graceTimers() != 1 {
		t.Fatalf("want exactly the old primary's grace armed, have %d", net.graceTimers())
	}

	old.Local().ForceViewChange() // alone: no quorum yet, so it sits mid-view-change
	net.drain()
	net.advance(noopGrace) // the grace fires there
	if old.graceTimer != nil {
		t.Fatal("fired grace timer still recorded as armed")
	}
	net.assertExecuted(1) // and proposed nothing

	for _, id := range net.topo.ClusterMembers(1) {
		net.reps[id].Local().ForceViewChange()
	}
	net.drain()
	if p := net.primary(1); p == old || p.Local().InViewChange() {
		t.Fatalf("view change did not install a new primary (view %d)", p.Local().View())
	}
	net.assertExecuted(2) // filled by the new primary, the clock did not move
	if noops, _ := net.noOpsAfter(1, 1); noops != 1 {
		t.Fatalf("round 2 of cluster 1 is not a no-op")
	}

	// Nothing is wedged: the old primary forwards, the new one orders.
	net.advance(noopGrace)
	a.submit()
	b.submit()
	net.drain()
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
	net := newManualNet(t, 2, 4, Config{CheckpointInterval: 1})
	bs := []*manualClient{net.client(1, 0, 0), net.client(3, 0, 0), net.client(5, 0, 0), net.client(7, 0, 0)}
	// Cluster 1's backups hear nothing for now: its primary assigns four
	// client batches (window full) and none of them commits.
	p := net.primary(1)
	net.hold = func(m manualMsg) bool {
		return m.from == p.cfg.Self && !m.to.IsClient() && m.to != p.cfg.Self && int(net.topo.ClusterOf(m.to)) == 1
	}
	for _, b := range bs {
		b.submit()
	}
	net.drain()
	if p.assignedRounds() != 4 || p.local.QueueLen() != 0 {
		t.Fatalf("setup: assigned %d queued %d", p.assignedRounds(), p.local.QueueLen())
	}
	for i := 0; i < 6; i++ { // cluster 0 certifies rounds 1..6; each share is new evidence
		net.client(2*i, 0, 0).submit()
		net.drain()
	}
	if p.evidencedRound != 6 {
		t.Fatalf("setup: cluster 1's primary saw evidence of round %d, want 6", p.evidencedRound)
	}
	if st := p.RoundStats(); st.GracesArmed != 1 || net.graceTimers() != 1 {
		t.Fatalf("six shares armed %d graces (%d timers), want 1", st.GracesArmed, net.graceTimers())
	}

	net.advance(noopGrace) // fires against the full window
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

	net.clients[config.ClientID(0)].submit() // round 7: cluster 1 has load again, so a fresh grace
	net.drain()
	if st := p.RoundStats(); st.GracesArmed != 2 || net.graceTimers() != 1 {
		t.Fatalf("next open round: %d graces armed (%d timers), want 2 (1)", st.GracesArmed, net.graceTimers())
	}
	bs[0].submit() // a client batch takes it before the grace runs out
	net.drain()
	net.assertExecuted(7)
	net.advance(noopGrace)
	if st := p.RoundStats(); st.GraceFilled != 1 || p.graceTimer != nil {
		t.Errorf("grace that a client batch beat: %+v, timer armed=%v", st, p.graceTimer != nil)
	}
	if noops, _ := net.noOpsAfter(1, 6); noops != 0 {
		t.Errorf("round 7 of cluster 1 is a no-op")
	}
}
