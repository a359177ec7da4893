package core

import (
	"testing"
	"time"

	"resilientdb/internal/config"
	"resilientdb/internal/pbft"
	"resilientdb/internal/types"
)

// Tests of who checks another cluster's certificate (vouch.go), on the
// manual-clock harness of pacing_test.go: the f+1 replicas a share was sent to
// verify it, the rest count forwards, and a replica left short of f+1
// forwards verifies for itself exactly one grace later.

// vouchTimers counts armed share-grace timers across the deployment.
func (n *testNet) vouchTimers() int {
	armed := 0
	for _, r := range n.reps {
		if r.vouchTimer != nil {
			armed++
		}
	}
	return armed
}

// countRejects routes every replica's OnVerifyReject into the returned map.
func (n *testNet) countRejects() map[types.NodeID]int {
	rejects := map[types.NodeID]int{}
	for id, r := range n.reps {
		id := id
		r.cfg.OnVerifyReject = func() { rejects[id]++ }
	}
	return rejects
}

// isForward reports whether m, sent from → to, is a certificate share
// travelling inside one cluster: the local phase of Figure 5.
func (n *testNet) isForward(from, to types.NodeID, m types.Message) bool {
	_, isShare := m.(*GlobalShare)
	return isShare && !from.IsClient() && n.topo.ClusterOf(from) == n.topo.ClusterOf(to)
}

// garbled returns a copy of a share whose first commit signature is flipped:
// the same round, batch and signers, different bytes, and it fails Verify.
func garbled(gs *GlobalShare) *GlobalShare {
	cert := *gs.Cert
	cert.Sigs = make([][]byte, len(gs.Cert.Sigs))
	for i, sig := range gs.Cert.Sigs {
		cert.Sigs[i] = append([]byte(nil), sig...)
	}
	cert.Sigs[0][0] ^= 0xff
	return &GlobalShare{Cluster: gs.Cluster, Round: gs.Round, Cert: &cert}
}

// TestVouchedShareCostsNoVerify: fault-free, a backup the share was not sent
// to executes the round on the f+1 forwards alone — not one signature check —
// in the instant the round was submitted, and no grace timer is left armed
// anywhere.
func TestVouchedShareCostsNoVerify(t *testing.T) {
	net := newTestNet(t, 2, 4, Config{})
	a, b := net.client(0), net.client(1)
	net.submit(a, b)
	net.RunFor(0)
	net.assertExecuted(1) // the clock never moved
	// Round 1 goes to local indices 1 and 2; index 3 is a backup it skipped.
	for c := 0; c < 2; c++ {
		id := net.topo.ReplicaID(c, 3)
		if _, verifies := net.ops(id); verifies != 0 {
			t.Errorf("replica %v ran %d verifies for a round it was forwarded by f+1 members, want 0", id, verifies)
		}
		if vouched, self := net.reps[id].ShareStats(); vouched != 1 || self != 0 {
			t.Errorf("replica %v: %d vouched, %d self-verified; want 1, 0", id, vouched, self)
		}
	}
	if armed := net.vouchTimers(); armed != 0 {
		t.Errorf("%d share-grace timers armed after a fault-free round", armed)
	}
}

// TestOneForwardFallsBackAfterOneGrace: receiver (c,2) verifies its copy and
// forwards nothing. The replicas the share was not sent to hold the single
// forward of (c,1), execute nothing a nanosecond short of one grace, and at
// one grace verify the copy themselves — n−f checks — and execute.
func TestOneForwardFallsBackAfterOneGrace(t *testing.T) {
	net := newTestNet(t, 2, 4, Config{})
	net.hold(func(from, to types.NodeID, m types.Message) bool {
		return net.isForward(from, to, m) && net.topo.LocalIndex(from) == 2
	})
	a, b := net.client(0), net.client(1)
	net.submit(a, b)
	net.RunFor(0)
	skipped := []types.NodeID{net.topo.ReplicaID(0, 0), net.topo.ReplicaID(0, 3), net.topo.ReplicaID(1, 0), net.topo.ReplicaID(1, 3)}
	check := func(want uint64) {
		t.Helper()
		for _, id := range net.topo.AllReplicas() {
			exp := uint64(1) // the receivers verified their own copy at once
			if idx := net.topo.LocalIndex(id); idx == 0 || idx == 3 {
				exp = want
			}
			if got := net.reps[id].ExecutedRound(); got != exp {
				t.Fatalf("t=%v: replica %v executed round %d, want %d", net.Now(), id, got, exp)
			}
		}
	}
	check(0)
	net.RunFor(shareGrace - time.Nanosecond)
	check(0)
	net.RunFor(time.Nanosecond)
	check(1)
	if net.Now() != shareGrace {
		t.Fatalf("clock at %v, want exactly one grace", net.Now())
	}
	for _, id := range skipped {
		_, verifies := net.ops(id)
		if net.reps[id].IsPrimary() {
			verifies -= 2 + 1 // its proof of its own cluster's certificate, its client's request
		}
		if verifies != 3 {
			t.Errorf("replica %v ran %d verifies on the held copy, want n−f = 3", id, verifies)
		}
		if vouched, self := net.reps[id].ShareStats(); vouched != 0 || self != 1 {
			t.Errorf("replica %v: %d vouched, %d self-verified; want 0, 1", id, vouched, self)
		}
	}
	if armed := net.vouchTimers(); armed != 0 {
		t.Errorf("%d share-grace timers still armed", armed)
	}
}

// starve runs round 1 with every share addressed to victim withheld, and
// returns the genuine share of cluster 0 it missed. The rest of the
// deployment executes the round; victim has only its own cluster's
// certificate.
func starve(t *testing.T, net *testNet, victim types.NodeID) *GlobalShare {
	t.Helper()
	net.hold(func(_, to types.NodeID, m types.Message) bool {
		_, isShare := m.(*GlobalShare)
		return isShare && to == victim
	})
	net.submit(net.client(0), net.client(1))
	net.RunFor(0)
	held := net.unhold()
	if len(held) == 0 || net.reps[victim].ExecutedRound() != 0 {
		t.Fatalf("setup: %d shares withheld, victim executed round %d", len(held), net.reps[victim].ExecutedRound())
	}
	return held[0].msg.(*GlobalShare)
}

// TestOnlyDistinctLocalMembersVouch: a forged copy is forwarded by one member
// — twice — and "forwarded" by a client identity, by the replica itself and by
// a replica of another cluster. Were any of those counted beside the member,
// the forgery would stand on f+1 forwards. None is: a sender that cannot vouch
// has its copy verified on arrival, rejected and counted, and the member stays
// one voucher however often it repeats itself. The genuine copy then needs
// two members of its own.
func TestOnlyDistinctLocalMembersVouch(t *testing.T) {
	net := newTestNet(t, 2, 4, Config{})
	rejects := net.countRejects()
	victim := net.topo.ReplicaID(1, 3)
	good := starve(t, net, victim)
	bad := garbled(good)
	r := net.reps[victim]

	liar := net.topo.ReplicaID(1, 1)
	net.deliver(liar, victim, bad)
	net.deliver(liar, victim, bad)
	for _, from := range []types.NodeID{config.ClientID(1), victim, net.topo.ReplicaID(0, 2)} {
		net.deliver(from, victim, bad)
	}
	if r.ExecutedRound() != 0 || rejects[victim] != 3 {
		t.Fatalf("after the forged copies: executed round %d, %d rejects; want 0 and 3 (one per sender that cannot vouch)", r.ExecutedRound(), rejects[victim])
	}
	if vouched, self := r.ShareStats(); vouched != 0 || self != 0 {
		t.Fatalf("forged copies counted: %d vouched, %d self-verified", vouched, self)
	}

	net.deliver(net.topo.ReplicaID(1, 2), victim, good)
	net.deliver(liar, victim, good) // its one forward for this round is spent
	if r.ExecutedRound() != 0 {
		t.Fatal("accepted the genuine copy on one voucher plus a member that already forwarded another")
	}
	_, before := net.ops(victim)
	net.deliver(net.topo.ReplicaID(1, 0), victim, good)
	if r.ExecutedRound() != 1 {
		t.Fatal("two distinct members forwarded the genuine copy and the round did not execute")
	}
	if _, after := net.ops(victim); after != before {
		t.Errorf("accepting on forwards ran %d verifies", after-before)
	}
	if vouched, self := r.ShareStats(); vouched != 1 || self != 0 {
		t.Errorf("%d vouched, %d self-verified; want 1, 0", vouched, self)
	}
	if blk := r.Ledger().Block(1); blk == nil || blk.CertDigest != good.Cert.CertDigest() {
		t.Error("the block of cluster 0 does not carry the genuine certificate")
	}
	if net.Now() != 0 || net.vouchTimers() != 0 {
		t.Errorf("clock at %v, %d share-grace timers armed; want 0, 0", net.Now(), net.vouchTimers())
	}
}

// TestDisagreeingForwards: one member forwards a garbled copy, another the
// genuine one. Neither stands on one voucher. At one grace the holder
// verifies them in arrival order: the garbled copy is rejected and counted,
// the genuine one executes, and it is the genuine bytes that are kept.
func TestDisagreeingForwards(t *testing.T) {
	net := newTestNet(t, 2, 4, Config{})
	rejects := net.countRejects()
	victim := net.topo.ReplicaID(1, 3)
	good := starve(t, net, victim)
	r := net.reps[victim]

	net.deliver(net.topo.ReplicaID(1, 1), victim, garbled(good))
	net.RunFor(time.Millisecond)
	net.deliver(net.topo.ReplicaID(1, 2), victim, good)
	if r.ExecutedRound() != 0 || rejects[victim] != 0 {
		t.Fatalf("before the grace: executed round %d, %d rejects; want 0, 0", r.ExecutedRound(), rejects[victim])
	}
	net.RunFor(shareGrace - time.Millisecond - time.Nanosecond) // the clock started with the first copy
	if r.ExecutedRound() != 0 {
		t.Fatal("decided before one grace had passed")
	}
	net.RunFor(time.Nanosecond)
	if r.ExecutedRound() != 1 || rejects[victim] != 1 {
		t.Fatalf("at one grace: executed round %d, %d rejects; want 1, 1", r.ExecutedRound(), rejects[victim])
	}
	if vouched, self := r.ShareStats(); vouched != 0 || self != 1 {
		t.Errorf("%d vouched, %d self-verified; want 0, 1", vouched, self)
	}
	blk := r.Ledger().Block(1)
	cert, _ := blk.Cert.(*pbft.Certificate)
	if cert != good.Cert || !cert.Verify(r.env.Suite(), net.topo.ClusterMembers(0), 3) {
		t.Error("the block of cluster 0 does not carry the genuine, verifying certificate")
	}
	for id, n := range rejects {
		if id != victim {
			t.Errorf("replica %v rejected %d messages", id, n)
		}
	}
}

// TestShareReceiversRotate: the f+1 replicas a round's certificate is sent to
// move by one local index per round, so over n rounds every replica of the
// other cluster is sent (f+1) of them — the n−f checks fall on everyone
// alike, the primary included.
func TestShareReceiversRotate(t *testing.T) {
	const n, f = 4, 1
	net := newTestNet(t, 2, n, Config{})
	sentTo := map[uint64]map[types.NodeID]bool{} // round → receivers in cluster 1
	net.observe(func(from, to types.NodeID, m types.Message) {
		if gs, ok := m.(*GlobalShare); ok && gs.Cluster == 0 && net.topo.ClusterOf(from) == 0 && net.topo.ClusterOf(to) == 1 {
			if sentTo[gs.Round] == nil {
				sentTo[gs.Round] = map[types.NodeID]bool{}
			}
			sentTo[gs.Round][to] = true
		}
	})
	a, b := net.client(0), net.client(1)
	for round := uint64(1); round <= n; round++ {
		net.submit(a, b)
		net.RunFor(0)
		net.assertExecuted(round)
	}
	times := map[types.NodeID]int{}
	for round := uint64(1); round <= n; round++ {
		if len(sentTo[round]) != f+1 {
			t.Fatalf("round %d was sent to %d replicas of cluster 1, want f+1 = %d", round, len(sentTo[round]), f+1)
		}
		same := round > 1
		for id := range sentTo[round] {
			times[id]++
			same = same && sentTo[round-1][id]
		}
		if same {
			t.Errorf("rounds %d and %d went to the same receivers", round-1, round)
		}
	}
	for _, id := range net.topo.ClusterMembers(1) {
		if times[id] != f+1 {
			t.Errorf("replica %v was a receiver %d times in %d rounds, want f+1 = %d", id, times[id], n, f+1)
		}
	}
}

// silence makes replica id crash-silent: nothing it sends is ever delivered.
func (n *testNet) silence(ids ...types.NodeID) {
	n.hold(func(from, _ types.NodeID, _ types.Message) bool {
		for _, id := range ids {
			if from == id {
				return true
			}
		}
		return false
	})
}

// assertLiveExecuted checks the executed round of every replica but the
// silenced ones.
func (n *testNet) assertLiveExecuted(rounds uint64, dead ...types.NodeID) {
	n.t.Helper()
next:
	for _, id := range n.topo.AllReplicas() {
		for _, d := range dead {
			if id == d {
				continue next
			}
		}
		if got := n.reps[id].ExecutedRound(); got != rounds {
			n.t.Fatalf("t=%v: replica %v executed round %d, want %d", n.Now(), id, got, rounds)
		}
	}
}

// TestSilentReceiverCostsOneGraceInParallel: replica 2 of each cluster is
// down. It is a receiver of rounds 1 and 2, so with four rounds in flight two
// of them reach the other replicas on a single forward. Each round's clock
// starts when its first forward arrives, wherever the round sits in the
// pipeline: all four rounds are executed exactly one grace later — not one
// grace per round — and not a nanosecond earlier.
func TestSilentReceiverCostsOneGraceInParallel(t *testing.T) {
	const k = 4
	net := newTestNet(t, 2, 4, Config{})
	dead := []types.NodeID{net.topo.ReplicaID(0, 2), net.topo.ReplicaID(1, 2)}
	net.silence(dead...)
	for i := 0; i < 2*k; i++ {
		net.submit(net.client(i))
	}
	net.RunFor(0)
	// (c,1) was sent round 1 and waits for round 2; (c,3) and the primary wait
	// for round 1.
	for _, id := range net.topo.AllReplicas() {
		want := uint64(0)
		if net.topo.LocalIndex(id) == 1 {
			want = 1
		}
		if got := net.reps[id].ExecutedRound(); id != dead[0] && id != dead[1] && got != want {
			t.Fatalf("t=0: replica %v executed round %d, want %d", id, got, want)
		}
	}
	net.RunFor(shareGrace - time.Nanosecond)
	if got := net.primary(0).ExecutedRound(); got != 0 {
		t.Fatalf("t=%v: the primary executed round %d before one grace", net.Now(), got)
	}
	net.RunFor(time.Nanosecond)
	net.assertLiveExecuted(k, dead...)
	for _, c := range net.clients[:2*k] {
		if c.Completed() != 1 {
			t.Errorf("client %v confirmed %d requests, want 1", c.ID(), c.Completed())
		}
	}
	// Rounds 3 and 4 had both receivers alive: nobody fell back on those.
	for idx, want := range map[int]uint64{0: 2, 1: 1, 3: 1} {
		for c := 0; c < 2; c++ {
			id := net.topo.ReplicaID(c, idx)
			if vouched, self := net.reps[id].ShareStats(); self != want || vouched+self != k-2 {
				t.Errorf("replica %v: %d vouched, %d self-verified; want %d, %d (the rounds the dead receiver owed it)", id, vouched, self, k-2-want, want)
			}
		}
	}
}

// TestIdleClusterFillWaitsAtMostOneGrace: only cluster 0 has clients and
// replica (1,2) is down. Cluster 1's primary is not a receiver of round 1 and
// hears of it on one forward: its no-op fill — and with it the round — is one
// grace late, no more. Round 3 is sent to the primary itself and costs
// nothing. Evidence comes only from accepted certificates: the held copy
// proposes nothing.
func TestIdleClusterFillWaitsAtMostOneGrace(t *testing.T) {
	net := newTestNet(t, 2, 4, Config{})
	dead := net.topo.ReplicaID(1, 2)
	net.silence(dead)
	a := net.client(0)
	p := net.primary(1)

	net.submit(a)
	net.RunFor(0)
	if p.evidencedRound != 0 || p.assignedRounds() != 0 {
		t.Fatalf("a held copy drove the idle primary: evidence of round %d, %d rounds assigned", p.evidencedRound, p.assignedRounds())
	}
	net.RunFor(shareGrace - time.Nanosecond)
	net.assertLiveExecuted(0, dead)
	net.RunFor(time.Nanosecond)
	net.assertLiveExecuted(1, dead)

	net.submit(a) // round 2 goes to (1,2) and (1,3): again one forward
	net.RunFor(0)
	net.assertLiveExecuted(1, dead)
	net.RunFor(shareGrace)
	net.assertLiveExecuted(2, dead)

	start := net.Now()
	net.submit(a) // round 3 goes to (1,3) and the primary
	net.RunFor(0)
	net.assertLiveExecuted(3, dead)
	net.submit(a) // round 4 goes to the primary and (1,1)
	net.RunFor(0)
	net.assertLiveExecuted(4, dead)
	if net.Now() != start {
		t.Fatalf("rounds sent to live receivers moved the clock by %v", net.Now()-start)
	}
	if st := p.RoundStats(); st.GracesArmed != 0 {
		t.Errorf("the idle primary armed %d no-op graces", st.GracesArmed)
	}
}

// TestShareBeyondWindowIsVerifiedOnArrival: a forward for a round further
// ahead than any honest primary has assigned is not held for vouchers — the
// holder verifies it at once, as every copy used to be, and the certificate is
// its evidence that it is behind. Nothing is broadcast on.
func TestShareBeyondWindowIsVerifiedOnArrival(t *testing.T) {
	net := newTestNet(t, 2, 4, Config{PipelineDepth: -1}) // window of one round
	a, b := net.client(0), net.client(1)
	victim := net.topo.ReplicaID(1, 3)
	var shares []*GlobalShare
	net.hold(func(_, to types.NodeID, _ types.Message) bool { return to == victim }) // the victim hears nothing at all
	net.observe(func(_, _ types.NodeID, m types.Message) {
		if gs, ok := m.(*GlobalShare); ok && gs.Cluster == 0 && len(shares) < int(gs.Round) {
			shares = append(shares, gs)
		}
	})
	for round := 1; round <= 2; round++ {
		net.submit(a, b)
		net.RunFor(0)
	}
	if len(shares) != 2 || net.reps[victim].ExecutedRound() != 0 {
		t.Fatalf("setup: %d shares seen, victim executed round %d", len(shares), net.reps[victim].ExecutedRound())
	}
	net.unhold()
	net.TraceSend = nil
	forwards := 0
	net.observe(func(from, _ types.NodeID, m types.Message) {
		if _, ok := m.(*GlobalShare); ok && from == victim {
			forwards++
		}
	})
	r := net.reps[victim]
	net.deliver(net.topo.ReplicaID(1, 1), victim, shares[1]) // round 2 > executed 0 + window 1
	if _, verifies := net.ops(victim); verifies != 3 || r.evidencedRound != 2 {
		t.Fatalf("%d verifies, evidence of round %d; want 3 and 2", verifies, r.evidencedRound)
	}
	if vouched, self := r.ShareStats(); vouched != 0 || self != 1 || forwards != 0 || r.catchupTimer == nil {
		t.Errorf("%d vouched, %d self-verified, %d forwards, catch-up supervised=%v; want 0, 1, 0, true", vouched, self, forwards, r.catchupTimer != nil)
	}
}

// padded returns a copy of a share with one more signature than it has
// signers: every byte the genuine certificate has, plus a trailing one. It
// fails Verify on the count alone.
func padded(gs *GlobalShare) *GlobalShare {
	cert := *gs.Cert
	cert.Sigs = append(append([][]byte(nil), gs.Cert.Sigs...), gs.Cert.Sigs[0])
	return &GlobalShare{Cluster: gs.Cluster, Round: gs.Round, Cert: &cert}
}

// TestPaddedForwardCannotRideOnGenuineVouchers: a faulty member forwards the
// genuine certificate with a signature appended — first, since it skips the
// checks an honest receiver runs. Were that copy keyed like the genuine one,
// the honest receiver's forward would complete f+1 vouchers for it and a
// certificate that fails Verify would be kept. It is not held at all: a share
// with unequal signer and signature counts is rejected and counted on arrival,
// and the round executes on two members' genuine copies, whose certificate —
// the one the ledger keeps — verifies.
func TestPaddedForwardCannotRideOnGenuineVouchers(t *testing.T) {
	net := newTestNet(t, 2, 4, Config{})
	rejects := net.countRejects()
	victim := net.topo.ReplicaID(1, 3)
	good := starve(t, net, victim)
	r := net.reps[victim]

	if _, ok := ShareKey(padded(good)); ok {
		t.Error("ShareKey keyed a certificate it does not cover byte for byte")
	}
	net.deliver(net.topo.ReplicaID(1, 1), victim, padded(good))
	if rejects[victim] != 1 || len(r.held) != 0 {
		t.Fatalf("padded copy: %d rejects, %d slots held; want 1, 0", rejects[victim], len(r.held))
	}
	net.deliver(net.topo.ReplicaID(1, 2), victim, good)
	if r.ExecutedRound() != 0 {
		t.Fatal("the padded copy counted as a voucher for the genuine one")
	}
	net.deliver(net.topo.ReplicaID(1, 0), victim, good)
	if r.ExecutedRound() != 1 {
		t.Fatal("two members forwarded the genuine copy and the round did not execute")
	}
	if vouched, self := r.ShareStats(); vouched != 1 || self != 0 {
		t.Errorf("%d vouched, %d self-verified; want 1, 0", vouched, self)
	}
	cert, _ := r.Ledger().Block(1).Cert.(*pbft.Certificate)
	if cert != good.Cert || !cert.Verify(r.env.Suite(), net.topo.ClusterMembers(0), 3) {
		t.Error("the block of cluster 0 does not carry the genuine, verifying certificate")
	}
}

// TestLaggingReplicaServedByVouchOnlyHolders: an honest replica re-sends what
// it holds accepted, not only what it verified — a DRvc is answered from the
// round state or the ledger (certAt). Here a replica that missed round 1
// altogether asks for it, and the only answers that reach it come from the
// three members that themselves accepted the round on forwards, without a
// signature check. Their copies are vouchers like any other: f+1 of them and
// the round executes, no verify run and no grace waited, and the certificate
// kept verifies — it is byte for byte the one the receivers verified, because
// the key those holders matched it on covers every byte (n = 7, f = 2: the
// smallest cluster with f+1 such holders beside the one that lags).
func TestLaggingReplicaServedByVouchOnlyHolders(t *testing.T) {
	const n, timeout = 7, 100 * time.Millisecond
	net := newTestNet(t, 2, n, Config{RemoteTimeout: timeout})
	victim := net.topo.ReplicaID(1, 6)
	good := starve(t, net, victim)
	r := net.reps[victim]

	// Round 1 went to local indices 1, 2 and 3; the others counted forwards.
	verified := func(id types.NodeID) bool { idx := net.topo.LocalIndex(id); return 1 <= idx && idx <= 3 }
	for _, id := range net.topo.ClusterMembers(1) {
		vouched, self := net.reps[id].ShareStats()
		want := uint64(1)
		if verified(id) {
			want = 0
		}
		if id != victim && (vouched != want || self != 0) {
			t.Fatalf("setup: replica %v: %d vouched, %d self-verified; want %d, 0", id, vouched, self, want)
		}
	}
	answers := 0
	net.hold(func(from, to types.NodeID, m types.Message) bool {
		_, isShare := m.(*GlobalShare)
		return isShare && to == victim && verified(from)
	})
	net.observe(func(_, to types.NodeID, m types.Message) {
		if _, isShare := m.(*GlobalShare); isShare && to == victim {
			answers++
		}
	})
	_, before := net.ops(victim)
	net.RunFor(timeout - time.Nanosecond)
	if r.ExecutedRound() != 0 || answers != 0 {
		t.Fatalf("before the detection timeout: executed round %d, %d answers", r.ExecutedRound(), answers)
	}
	net.RunFor(time.Nanosecond) // the victim's DRvc goes out and is answered
	if r.ExecutedRound() != 1 || answers != 3 {
		t.Fatalf("executed round %d on %d answers from members that never verified; want 1 on 3", r.ExecutedRound(), answers)
	}
	if _, after := net.ops(victim); after != before {
		t.Errorf("the lagging replica ran %d verifies", after-before)
	}
	if vouched, self := r.ShareStats(); vouched != 1 || self != 0 || net.vouchTimers() != 0 {
		t.Errorf("%d vouched, %d self-verified, %d share-grace timers armed; want 1, 0, 0", vouched, self, net.vouchTimers())
	}
	cert, _ := r.Ledger().Block(1).Cert.(*pbft.Certificate)
	if cert != good.Cert || !cert.Verify(r.env.Suite(), net.topo.ClusterMembers(0), n-2) {
		t.Error("the block of cluster 0 does not carry the genuine, verifying certificate")
	}
}
