package core

import (
	"fmt"
	"testing"
	"time"

	"resilientdb/internal/detsim"
	"resilientdb/internal/pbft"
	"resilientdb/internal/transport"
	"resilientdb/internal/types"
)

// Tests of the one signature rule — a vote is counted on channel
// authentication, its signature verified only where a proof built from it is
// shown — on the manual-clock harness of pacing_test.go.

// ops returns the Sign and Verify calls replica id's suite has run.
func (n *testNet) ops(id types.NodeID) (signs, verifies uint64) {
	return n.reps[id].env.Suite().Ops()
}

// TestSignatureBudgetPerRound pins the exact number of signature operations
// a fault-free round costs each replica at n=4 (f=1, quorum 3): every
// replica signs its prepare and its commit. At z=2 the other cluster's
// certificate is verified (n−f signatures) by the f+1 replicas it was sent
// to, who rotate with the round, and accepted by the rest on their f+1
// forwards — so over a multiple of n rounds each replica verifies (f+1)/n of
// them; the primary, which forwards its own cluster's certificate,
// additionally verifies the quorum−1 peer votes in it. At z=1 no certificate
// leaves the cluster, so the primary proves nothing and verifies what a
// backup does. A backup verifies no vote at all. One checkpoint signature per
// interval comes on top. The harness's clients sign their requests and send
// them to their cluster's primary, which verifies each one it admits exactly
// once, as it does in the fabric: one more verify per round per cluster.
func TestSignatureBudgetPerRound(t *testing.T) {
	for _, z := range []int{2, 1} {
		t.Run(fmt.Sprintf("z=%d", z), func(t *testing.T) { signatureBudget(t, z) })
	}
}

func signatureBudget(t *testing.T, z int) {
	const n, f, rounds, interval = 4, 1, 12, 6
	const quorum = n - f
	net := newTestNet(t, z, n, Config{CheckpointInterval: interval})
	clients := make([]*detsim.Client, z) // one per cluster: identity i's home is cluster i mod z
	for i := range clients {
		clients[i] = net.client(i)
	}
	for round := uint64(1); round <= rounds; round++ {
		net.submit(clients...)
		net.RunFor(0)
		net.assertExecuted(round)
	}
	for _, id := range net.topo.AllReplicas() {
		r := net.reps[id]
		signs, verifies := net.ops(id)
		const received = rounds * (f + 1) / n // rounds in which the replica was sent the certificate
		wantVerifies := uint64((z - 1) * received * quorum)
		role := "backup"
		if r.IsPrimary() {
			role = "primary"
			if z > 1 {
				wantVerifies += rounds * (quorum - 1) // proving its own certificate
			}
			wantVerifies += rounds // one client request per round
		}
		if verifies != wantVerifies {
			t.Errorf("%s %v: %d verifies in %d rounds (%.2f per round), want %d", role, id, verifies, rounds, float64(verifies)/rounds, wantVerifies)
		}
		if want := uint64(2*rounds + rounds/interval); signs != want {
			t.Errorf("%s %v: %d signs in %d rounds, want %d (prepare + commit per round, one checkpoint per %d)", role, id, signs, rounds, want, interval)
		}
		if bad, unprovable := r.ProofStats(); bad != 0 || unprovable != 0 {
			t.Errorf("%s %v: fault-free run counted %d bad vote signatures, %d unprovable", role, id, bad, unprovable)
		}
		wantVouched := uint64((z - 1) * (rounds - received))
		if vouched, self := r.ShareStats(); vouched != wantVouched || self != 0 {
			t.Errorf("%s %v: %d certificates accepted on forwards, %d self-verified; want %d, 0", role, id, vouched, self, wantVouched)
		}
	}
}

// forgeVotes returns an intercept that garbles the signature of every
// prepare, commit and checkpoint vote sent by id — valid routing, good
// channel, garbage signature — and counts what it garbled.
func forgeVotes(id types.NodeID, forged *int) transport.InterceptFn {
	garbage := []byte("garbage-signature")
	return func(from, to types.NodeID, m types.Message) ([]transport.Delivery, bool) {
		if from != id {
			return nil, false
		}
		var forgery types.Message
		switch v := m.(type) {
		case *pbft.Prepare:
			c := *v
			c.Sig = garbage
			forgery = &c
		case *pbft.Commit:
			c := *v
			c.Sig = garbage
			forgery = &c
		case *pbft.Checkpoint:
			c := *v
			c.Sig = garbage
			forgery = &c
		default:
			return nil, false
		}
		*forged++
		return []transport.Delivery{{To: to, Msg: forgery}}, true
	}
}

// auditShares makes the harness verify every certificate that crosses a
// cluster boundary or answers a catch-up request, as the receiver would:
// whatever its sender counted, what leaves a replica must be proven.
func (n *testNet) auditShares(skip types.NodeID) {
	n.observe(func(from, to types.NodeID, m types.Message) {
		if from == skip || from.IsClient() {
			return
		}
		verifier := n.reps[n.topo.ReplicaID(0, 0)].env.Suite()
		quorum := n.topo.PerCluster - n.topo.F()
		switch v := m.(type) {
		case *GlobalShare:
			if !v.Cert.Verify(verifier, n.topo.ClusterMembers(int(v.Cluster)), quorum) {
				n.t.Errorf("t=%v: %v sent %v an unprovable certificate for round %d of cluster %d", n.Now(), from, to, v.Round, v.Cluster)
			}
		case *CatchUpResp:
			for _, b := range v.Blocks {
				if !b.Cert.(*pbft.Certificate).Verify(verifier, n.topo.ClusterMembers(int(b.Cluster)), quorum) {
					n.t.Errorf("t=%v: %v served %v block %d with an unprovable certificate", n.Now(), from, to, b.Height)
				}
			}
		}
	})
}

// TestForgedVotesFromBackup: backup (0,2) signs garbage. On the harness's
// FIFO network its commit votes are the first to arrive everywhere and
// (0,1)'s the last, so the garbage is among the n−f every decision is counted
// on and (0,1)'s vote is the spare. Rounds commit and execute regardless; the primary drops and
// counts the bad vote when it proves the certificate, holds the share until
// the spare vote arrives, and what it then sends verifies. No backup verifies
// a vote — its verifies are the remote certificates it was a receiver of, two
// rounds in four — and no receiver in the other cluster rejects anything. A
// backup asked for its blocks before the entries are collected proves them
// from the retained votes.
func TestForgedVotesFromBackup(t *testing.T) {
	rejects := map[types.NodeID]int{}
	cfg := Config{}
	net := newTestNet(t, 2, 4, cfg)
	for id, r := range net.reps {
		id := id
		r.cfg.OnVerifyReject = func() { rejects[id]++ }
	}
	forger := net.topo.ReplicaID(0, 2)
	forged := 0
	net.Intercept = forgeVotes(forger, &forged)
	net.auditShares(forger)
	a, b := net.client(0), net.client(1)
	const rounds = 4
	for round := uint64(1); round <= rounds; round++ {
		net.submit(a, b)
		net.RunFor(0)
		net.assertExecuted(round)
	}
	if forged == 0 {
		t.Fatal("the forger never forged")
	}
	p := net.primary(0)
	if bad, _ := p.ProofStats(); bad != rounds {
		t.Errorf("primary counted %d bad vote signatures, want one per round = %d", bad, rounds)
	}
	for id, n := range rejects {
		t.Errorf("replica %v rejected %d messages; nothing honest may be rejected", id, n)
	}
	for _, id := range []types.NodeID{net.topo.ReplicaID(0, 1), net.topo.ReplicaID(0, 3)} {
		if _, verifies := net.ops(id); verifies != rounds/2*3 {
			t.Errorf("backup %v ran %d verifies, want only %d for the remote certificates it was sent", id, verifies, rounds/2*3)
		}
	}

	// A peer pulls the chain from honest backup (0,3): every own-cluster
	// certificate it serves is proven first (checked by the audit above),
	// with the forger's vote replaced by the spare.
	backup := net.topo.ReplicaID(0, 3)
	served := 0
	net.observe(func(from, _ types.NodeID, m types.Message) {
		if resp, ok := m.(*CatchUpResp); ok && from == backup {
			served += len(resp.Blocks)
		}
	})
	net.deliver(net.topo.ReplicaID(1, 3), backup, &CatchUpReq{NextHeight: 1})
	if served != 2*rounds {
		t.Errorf("backup served %d blocks, want the whole chain of %d", served, 2*rounds)
	}
	if bad, unprovable := net.reps[backup].ProofStats(); bad != rounds || unprovable != 0 {
		t.Errorf("serving backup: %d bad vote signatures, %d unprovable; want %d, 0", bad, unprovable, rounds)
	}
}

// TestUnprovableBlockIsNotServed: the spare vote never reaches backup (0,3),
// so its certificate for each round holds the forger's garbage and nothing to
// replace it with. Asked for its chain it serves nothing it cannot prove and
// counts the refusal; the requester's rotation would move on.
func TestUnprovableBlockIsNotServed(t *testing.T) {
	net := newTestNet(t, 2, 4, Config{})
	forger, backup := net.topo.ReplicaID(0, 2), net.topo.ReplicaID(0, 3)
	forged := 0
	net.Intercept = forgeVotes(forger, &forged)
	net.auditShares(forger)
	net.hold(func(from, to types.NodeID, m types.Message) bool { // (0,1)'s commit votes never reach (0,3)
		_, isCommit := m.(*pbft.Commit)
		return isCommit && from == net.topo.ReplicaID(0, 1) && to == backup
	})
	a, b := net.client(0), net.client(1)
	for round := uint64(1); round <= 2; round++ {
		net.submit(a, b)
		net.RunFor(0)
		net.assertExecuted(round)
	}
	served := -1
	net.observe(func(from, _ types.NodeID, m types.Message) {
		if resp, ok := m.(*CatchUpResp); ok && from == backup {
			served = len(resp.Blocks)
		}
	})
	net.deliver(net.topo.ReplicaID(1, 3), backup, &CatchUpReq{NextHeight: 1})
	if served > 0 {
		t.Errorf("backup served %d blocks starting at one it cannot prove", served)
	}
	if _, unprovable := net.reps[backup].ProofStats(); unprovable == 0 {
		t.Error("the refusal was not counted")
	}
	if net.reps[backup].ShowBlock(1) != nil {
		t.Error("ShowBlock handed out the unprovable block")
	}
	if blk := net.reps[backup].ShowBlock(2); blk == nil {
		t.Error("ShowBlock refused the other cluster's block, which was verified or vouched for on receipt")
	}
}

// TestForgedVotesFromPrimaryThenWithheldShares is the case forgetting must
// get right: cluster 0's primary signs garbage votes and withholds every
// share. Its cluster commits the rounds and, with cluster 1's shares,
// executes them, collecting the entries at stable checkpoints on the way;
// cluster 1 misses the shares and has the primary deposed (Figure 7). The new
// primary must reshare a provable certificate for every withheld round —
// from votes kept past the entries' collection — and the honest replicas'
// campaigns, whose checkpoint sets hold the old primary's garbage, must still
// validate so the view change completes at all.
func TestForgedVotesFromPrimaryThenWithheldShares(t *testing.T) {
	net := newTestNet(t, 2, 4, Config{
		CheckpointInterval: 2,
		LocalTimeout:       400 * time.Millisecond,
		RemoteTimeout:      700 * time.Millisecond,
	})
	old := net.primary(0)
	forged := 0
	net.Intercept = forgeVotes(old.cfg.Self, &forged)
	net.auditShares(old.cfg.Self)
	withheld := 0
	net.hold(func(from, to types.NodeID, m types.Message) bool {
		if _, isShare := m.(*GlobalShare); isShare && from == old.cfg.Self && int(net.topo.ClusterOf(to)) != 0 {
			withheld++
			return true
		}
		return false
	})
	a, b := net.client(0), net.client(1)
	const rounds = 5
	for round := uint64(1); round <= rounds; round++ {
		net.submit(a, b)
		net.RunFor(0)
	}
	for _, id := range net.topo.AllReplicas() {
		want := uint64(rounds) // cluster 0 has both certificates of every round
		if int(net.topo.ClusterOf(id)) == 1 {
			want = 0 // cluster 1 never saw cluster 0's
		}
		if got := net.reps[id].ExecutedRound(); got != want {
			t.Fatalf("setup: replica %v executed round %d, want %d", id, got, want)
		}
	}
	if got := old.local.StableSeq(); got != 4 || withheld == 0 || forged == 0 {
		t.Fatalf("setup: stable checkpoint %d (want 4: entries 1-4 collected), withheld %d shares, forged %d votes", got, withheld, forged)
	}

	net.RunFor(2 * time.Second) // cluster 1 times out on round 1, agrees, sends Rvc; cluster 0 changes view
	p := net.primary(0)
	if p == old || p.local.InViewChange() {
		t.Fatalf("the forging, withholding primary was not deposed (view %d)", p.local.View())
	}
	net.RunFor(time.Second)
	net.assertExecuted(rounds) // every withheld round reshared, provably (audited), and executed by cluster 1
	if bad, _ := p.ProofStats(); bad == 0 {
		t.Error("the new primary proved certificates holding garbage votes without counting one")
	}
}

// TestViewChangeCompletesOverGarbageVotes is the single-fault liveness case:
// cluster 0's primary signs garbage prepares, commits and checkpoints, then
// goes silent with a proposal prepared but not committed. Every honest
// campaign shows a stable-checkpoint proof and a prepared proof whose
// retained vote sets contain the primary's garbage; built unproven, each
// would be discarded whole by validateViewChange and the view change would
// never complete. Built from n−f signatures that verify, they install the
// new view, and the prepared batch commits and executes there.
func TestViewChangeCompletesOverGarbageVotes(t *testing.T) {
	net := newTestNet(t, 2, 4, Config{CheckpointInterval: 2, LocalTimeout: 400 * time.Millisecond})
	old := net.primary(0)
	forged := 0
	net.Intercept = forgeVotes(old.cfg.Self, &forged)
	net.auditShares(old.cfg.Self)
	a, b := net.client(0), net.client(1)
	for round := uint64(1); round <= 3; round++ {
		net.submit(a, b)
		net.RunFor(0)
		net.assertExecuted(round)
	}
	// Round 4 prepares in cluster 0 and no commit vote is ever delivered;
	// from then on the primary says nothing at all.
	silent := false
	net.hold(func(from, _ types.NodeID, m types.Message) bool {
		if c, isCommit := m.(*pbft.Commit); isCommit && c.Seq == 4 && c.View == 0 && int(net.topo.ClusterOf(from)) == 0 {
			silent = true
			return true
		}
		return silent && from == old.cfg.Self
	})
	net.submit(a, b)
	net.RunFor(0)
	for _, id := range net.topo.ClusterMembers(0)[1:] {
		if r := net.reps[id]; r.local.StableSeq() != 2 || r.local.CommittedUpTo() != 3 {
			t.Fatalf("setup: replica %v stable %d committed %d, want 2 and 3", id, r.local.StableSeq(), r.local.CommittedUpTo())
		}
	}

	net.RunFor(time.Second) // the backups time out on round 4 and campaign
	for _, id := range net.topo.ClusterMembers(0)[1:] {
		if r := net.reps[id]; r.local.View() != 1 || r.local.InViewChange() {
			t.Fatalf("replica %v: view %d, in view change %v: the view change did not complete", id, r.local.View(), r.local.InViewChange())
		}
		if bad, unprovable := net.reps[id].ProofStats(); bad == 0 || unprovable != 0 {
			t.Errorf("replica %v: %d bad vote signatures counted, %d unprovable; want > 0 and 0", id, bad, unprovable)
		}
	}
	for _, id := range net.topo.AllReplicas() {
		if id != old.cfg.Self && net.reps[id].ExecutedRound() != 4 {
			t.Errorf("replica %v executed round %d, want 4: the prepared batch did not survive the view change", id, net.reps[id].ExecutedRound())
		}
	}
	if blk := net.reps[net.topo.ReplicaID(1, 1)].ledger.Block(7); blk == nil || blk.Batch.NoOp || blk.Batch.Client != a.ID() {
		t.Errorf("round 4 of cluster 0 does not hold the client's prepared batch: %+v", blk)
	}
}
