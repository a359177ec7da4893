package pbft

import (
	"math/rand"
	"testing"
	"time"

	"resilientdb/internal/crypto"
	"resilientdb/internal/proto"
	"resilientdb/internal/types"
)

// Table-driven view-change tests with exactly f malicious voters: every
// forged or stale artifact a Byzantine quorum member can smuggle into a
// view-change/new-view exchange must be rejected (and counted through
// Hooks.Rejected), while the same exchange with honest content installs.

// byzEnv is a minimal proto.Env for driving a Replica directly: sends are
// recorded, timers never fire, time stands still.
type byzEnv struct {
	id    types.NodeID
	suite *crypto.Suite
	rng   *rand.Rand
}

type noTimer struct{}

func (noTimer) Stop() {}

func (e *byzEnv) ID() types.NodeID                                { return e.id }
func (e *byzEnv) Now() time.Duration                              { return 0 }
func (e *byzEnv) Send(to types.NodeID, m types.Message)           {}
func (e *byzEnv) SetTimer(d time.Duration, fn func()) proto.Timer { return noTimer{} }
func (e *byzEnv) Suite() *crypto.Suite                            { return e.suite }
func (e *byzEnv) Rand() *rand.Rand                                { return e.rng }

// byzRig is one replica under test plus signing suites for every member (the
// test plays all peers, honest and malicious alike).
type byzRig struct {
	r        *Replica
	members  []types.NodeID
	suites   map[types.NodeID]*crypto.Suite
	rejected int
}

func newByzRig(t *testing.T) *byzRig {
	t.Helper()
	members := []types.NodeID{0, 1, 2, 3}
	dir := crypto.NewDirectory(crypto.Fast, members)
	rig := &byzRig{members: members, suites: make(map[types.NodeID]*crypto.Suite)}
	for _, id := range members {
		rig.suites[id] = crypto.NewSuite(dir, id, crypto.FreeCosts(), nil)
	}
	env := &byzEnv{id: 0, suite: rig.suites[0], rng: rand.New(rand.NewSource(1))}
	rig.r = NewReplica(env, Config{Members: members, Self: 0, F: 1}, Hooks{
		Rejected: func() { rig.rejected++ },
	})
	return rig
}

// signedVC builds a validly signed, empty-state view-change by `replica`
// campaigning for view v.
func (rig *byzRig) signedVC(replica types.NodeID, v uint64) *ViewChange {
	vc := &ViewChange{NewView: v, Replica: replica}
	vc.Sig = rig.suites[replica].Sign(ViewChangePayload(vc))
	return vc
}

// preparedProof builds a proof that batch (seq, val) prepared in view pv,
// with prepare signatures from the given signers. Pass forge to corrupt the
// first signature after signing.
func (rig *byzRig) preparedProof(seq uint64, val uint64, pv uint64, signers []types.NodeID) *PreparedProof {
	b := types.Batch{Client: types.ClientIDBase, Seq: seq, Txns: []types.Transaction{{Key: 1, Value: val}}}
	p := &PreparedProof{View: pv, Seq: seq, Digest: b.Digest(), Batch: b}
	payload := PreparePayload(pv, seq, p.Digest)
	for _, id := range signers {
		p.PrepareSigners = append(p.PrepareSigners, id)
		p.PrepareSigs = append(p.PrepareSigs, rig.suites[id].Sign(payload))
	}
	return p
}

// commitCert builds a commit certificate for batch (seq, val) at view cv
// signed by the given members.
func (rig *byzRig) commitCert(seq, val, cv uint64, signers []types.NodeID) *Certificate {
	b := types.Batch{Client: types.ClientIDBase, Seq: seq, Txns: []types.Transaction{{Key: 1, Value: val}}}
	c := &Certificate{View: cv, Seq: seq, Digest: b.Digest(), Batch: b}
	payload := CommitPayload(cv, seq, c.Digest)
	for _, id := range signers {
		c.Signers = append(c.Signers, id)
		c.Sigs = append(c.Sigs, rig.suites[id].Sign(payload))
	}
	return c
}

// newView assembles the new-view message the primary of view 1 would send
// from the given view-changes, then lets mutate corrupt it.
func newViewFrom(vcs []*ViewChange) *NewView {
	return &NewView{View: 1, ViewChanges: vcs, PrePrepares: computeNewViewProposals(1, vcs)}
}

func TestNewViewWithFMaliciousVoters(t *testing.T) {
	quorum := []types.NodeID{1, 2, 3} // replica 0 receives; 1 is primary of view 1
	cases := []struct {
		name   string
		mutate func(rig *byzRig, vcs []*ViewChange) (*NewView, types.NodeID)
		accept bool
	}{
		{"honest quorum installs", func(rig *byzRig, vcs []*ViewChange) (*NewView, types.NodeID) {
			return newViewFrom(vcs), 1
		}, true},
		{"honest quorum with prepared proof installs", func(rig *byzRig, vcs []*ViewChange) (*NewView, types.NodeID) {
			vcs[2] = &ViewChange{NewView: 1, Replica: 3,
				Prepared: []*PreparedProof{rig.preparedProof(1, 7, 0, quorum)}}
			vcs[2].Sig = rig.suites[3].Sign(ViewChangePayload(vcs[2]))
			return newViewFrom(vcs), 1
		}, true},
		{"forged view-change signature", func(rig *byzRig, vcs []*ViewChange) (*NewView, types.NodeID) {
			vcs[1].Sig = append([]byte(nil), vcs[1].Sig...)
			vcs[1].Sig[0] ^= 0xff
			return newViewFrom(vcs), 1
		}, false},
		{"duplicate view-change voter pads the quorum", func(rig *byzRig, vcs []*ViewChange) (*NewView, types.NodeID) {
			vcs[2] = vcs[1] // replica 2's slot filled with a copy of replica 1's
			return newViewFrom(vcs), 1
		}, false},
		{"view-change for the wrong view", func(rig *byzRig, vcs []*ViewChange) (*NewView, types.NodeID) {
			vcs[1] = rig.signedVC(2, 2) // validly signed, but campaigns for view 2
			return newViewFrom(vcs), 1
		}, false},
		{"new-view from a non-primary", func(rig *byzRig, vcs []*ViewChange) (*NewView, types.NodeID) {
			return newViewFrom(vcs), 2
		}, false},
		{"truncated quorum", func(rig *byzRig, vcs []*ViewChange) (*NewView, types.NodeID) {
			return newViewFrom(vcs[:2]), 1
		}, false},
		{"duplicate stable-proof signers", func(rig *byzRig, vcs []*ViewChange) (*NewView, types.NodeID) {
			// A stable checkpoint at 4 "proven" by two signatures from the
			// same replica plus one honest one.
			d := types.Hash([]byte("hist"))
			mk := func(id types.NodeID) *Checkpoint {
				return &Checkpoint{Seq: 4, Digest: d, Replica: id,
					Sig: rig.suites[id].Sign(checkpointPayload(4, d))}
			}
			cp1 := mk(1)
			vcs[1] = &ViewChange{NewView: 1, Replica: 2, StableSeq: 4,
				StableProof: []*Checkpoint{cp1, cp1, mk(2)}}
			vcs[1].Sig = rig.suites[2].Sign(ViewChangePayload(vcs[1]))
			return newViewFrom(vcs), 1
		}, false},
		{"forged prepare signature in prepared proof", func(rig *byzRig, vcs []*ViewChange) (*NewView, types.NodeID) {
			p := rig.preparedProof(1, 7, 0, quorum)
			p.PrepareSigs[0] = []byte("forged")
			vcs[1] = &ViewChange{NewView: 1, Replica: 2, Prepared: []*PreparedProof{p}}
			vcs[1].Sig = rig.suites[2].Sign(ViewChangePayload(vcs[1]))
			return newViewFrom(vcs), 1
		}, false},
		{"duplicate prepare signers", func(rig *byzRig, vcs []*ViewChange) (*NewView, types.NodeID) {
			p := rig.preparedProof(1, 7, 0, []types.NodeID{1, 1, 2})
			vcs[1] = &ViewChange{NewView: 1, Replica: 2, Prepared: []*PreparedProof{p}}
			vcs[1].Sig = rig.suites[2].Sign(ViewChangePayload(vcs[1]))
			return newViewFrom(vcs), 1
		}, false},
		{"stale-view certificate under a fresh claim", func(rig *byzRig, vcs []*ViewChange) (*NewView, types.NodeID) {
			// The proof claims batch B prepared, but attaches the old view's
			// certificate for batch A: digest mismatch must reject it.
			p := rig.preparedProof(1, 99, 1, nil)
			p.Cert = rig.commitCert(1, 7, 0, quorum)
			vcs[1] = &ViewChange{NewView: 1, Replica: 2, Prepared: []*PreparedProof{p}}
			vcs[1].Sig = rig.suites[2].Sign(ViewChangePayload(vcs[1]))
			return newViewFrom(vcs), 1
		}, false},
		{"certificate for the wrong sequence", func(rig *byzRig, vcs []*ViewChange) (*NewView, types.NodeID) {
			p := rig.preparedProof(1, 7, 0, nil)
			cert := rig.commitCert(2, 7, 0, quorum)
			cert.Digest, cert.Batch = p.Digest, p.Batch // splice the claim over
			p.Cert = cert
			vcs[1] = &ViewChange{NewView: 1, Replica: 2, Prepared: []*PreparedProof{p}}
			vcs[1].Sig = rig.suites[2].Sign(ViewChangePayload(vcs[1]))
			return newViewFrom(vcs), 1
		}, false},
		{"certificate signed for a different view than it claims", func(rig *byzRig, vcs []*ViewChange) (*NewView, types.NodeID) {
			cert := rig.commitCert(1, 7, 0, quorum)
			cert.View = 1 // claims view 1; signatures cover view 0
			p := &PreparedProof{View: 1, Seq: 1, Digest: cert.Digest, Batch: cert.Batch, Cert: cert}
			vcs[1] = &ViewChange{NewView: 1, Replica: 2, Prepared: []*PreparedProof{p}}
			vcs[1].Sig = rig.suites[2].Sign(ViewChangePayload(vcs[1]))
			return newViewFrom(vcs), 1
		}, false},
		{"tampered proposal set", func(rig *byzRig, vcs []*ViewChange) (*NewView, types.NodeID) {
			vcs[1] = &ViewChange{NewView: 1, Replica: 2,
				Prepared: []*PreparedProof{rig.preparedProof(1, 7, 0, quorum)}}
			vcs[1].Sig = rig.suites[2].Sign(ViewChangePayload(vcs[1]))
			nv := newViewFrom(vcs)
			// The byzantine primary swaps its own batch into the derived set.
			evil := types.Batch{Client: types.ClientIDBase, Seq: 1, Txns: []types.Transaction{{Key: 9, Value: 666}}}
			nv.PrePrepares[0] = &PrePrepare{View: 1, Seq: 1, Digest: evil.Digest(), Batch: evil}
			return nv, 1
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rig := newByzRig(t)
			vcs := []*ViewChange{rig.signedVC(1, 1), rig.signedVC(2, 1), rig.signedVC(3, 1)}
			nv, from := tc.mutate(rig, vcs)
			rig.r.HandleMessage(from, nv)
			if tc.accept {
				if rig.r.View() != 1 {
					t.Fatalf("honest new-view not installed: view=%d", rig.r.View())
				}
				if rig.rejected != 0 {
					t.Fatalf("honest new-view counted %d rejections", rig.rejected)
				}
				return
			}
			if rig.r.View() != 0 {
				t.Fatalf("malicious new-view installed view %d", rig.r.View())
			}
			if rig.rejected == 0 {
				t.Fatal("malicious new-view vanished uncounted (Hooks.Rejected never fired)")
			}
		})
	}
}

// TestViewChangeSpamBounded pins the vcStore memory bound: a single
// Byzantine replica spamming validly signed campaigns for ever-higher (or
// alternating) views keeps at most one stored campaign — per-sender
// eviction, so state stays O(n) regardless of how many distinct views are
// spammed, while a genuinely far-ahead campaign (a healed partition whose
// members escalated for hours) is still stored and can still assemble a
// quorum. Found by the view-change-spam chaos scenario.
func TestViewChangeSpamBounded(t *testing.T) {
	rig := newByzRig(t)
	for v := uint64(1); v <= 2000; v++ {
		rig.r.HandleMessage(1, rig.signedVC(1, v))
	}
	if got := len(rig.r.vcStore); got != 1 {
		t.Fatalf("vcStore holds %d views after spam, want 1 (per-sender eviction)", got)
	}
	// One spammer is below the f+1 join threshold: no view-change starts.
	if rig.r.InViewChange() || rig.r.View() != 0 {
		t.Fatalf("spam from one replica moved the view: view=%d inVC=%v", rig.r.View(), rig.r.InViewChange())
	}
	// Far-ahead campaigns are NOT dropped: when f+1 senders genuinely
	// escalated far past us (a healed long partition), the join rule must
	// still fire — dropping them would livelock the cluster forever.
	rig.r.HandleMessage(2, rig.signedVC(2, 2000))
	if !rig.r.InViewChange() && rig.r.View() == 0 {
		t.Fatal("f+1 far-ahead campaigns did not trigger the join rule")
	}
	if got := len(rig.r.vcStore); got > 3 {
		t.Fatalf("vcStore holds %d views, want O(n)", got)
	}
	// Forged signatures on live campaigns are rejected and counted.
	before := rig.rejected
	vc := rig.signedVC(1, rig.r.View()+5)
	vc.Sig = []byte("garbage")
	rig.r.HandleMessage(1, vc)
	if rig.rejected != before+1 {
		t.Fatal("forged view-change signature vanished uncounted")
	}
	// A spoofed campaigner identity is rejected regardless of view.
	before = rig.rejected
	rig.r.HandleMessage(2, rig.signedVC(1, rig.r.View()+5))
	if rig.rejected != before+1 {
		t.Fatal("spoofed view-change identity vanished uncounted")
	}
}

// voteRig is replica 0 leading view 0 with the test playing its three peers.
type voteRig struct {
	*byzRig
	committed, proven, bad int
}

func newVoteRig(t *testing.T) *voteRig {
	v := &voteRig{byzRig: newByzRig(t)}
	v.r = NewReplica(&byzEnv{id: 0, suite: v.suites[0], rng: rand.New(rand.NewSource(1))},
		Config{Members: v.members, Self: 0, F: 1, CheckpointInterval: 2}, Hooks{
			Committed:  func(uint64, *Certificate) { v.committed++ },
			Rejected:   func() { v.rejected++ },
			Proven:     func(uint64, *Certificate) { v.proven++ },
			BadVoteSig: func() { v.bad++ },
		})
	return v
}

func (v *voteRig) verifies() uint64 { _, n := v.suites[0].Ops(); return n }

// propose has replica 0 propose batch seq and delivers every peer's prepare.
func (v *voteRig) propose(seq uint64) types.Digest {
	b := types.Batch{Client: types.ClientIDBase, Seq: seq, Txns: []types.Transaction{{Key: 1, Value: seq}}}
	v.r.SubmitLocal(b, nil, true)
	d := b.Digest()
	for _, id := range v.members[1:] {
		v.r.HandleMessage(id, &Prepare{View: 0, Seq: seq, Digest: d, Replica: id,
			Sig: v.suites[id].Sign(PreparePayload(0, seq, d))})
	}
	return d
}

// commit delivers id's commit vote for (seq, d); forged garbles the signature.
func (v *voteRig) commit(id types.NodeID, seq uint64, d types.Digest, forged bool) {
	sig := v.suites[id].Sign(CommitPayload(0, seq, d))
	if forged {
		sig = []byte("garbage-signature")
	}
	v.r.HandleMessage(id, &Commit{View: 0, Seq: seq, Digest: d, Replica: id, Sig: sig})
}

// TestCommitVotesProvenOnlyWhenShown pins the vote-handling rule: receiving
// and counting commit votes runs no signature check at all — a vote is
// refused only if it names someone other than its sender or carries no
// signature to keep — and Prove, the step before a certificate is shown,
// checks exactly quorum−1 peer signatures once.
func TestCommitVotesProvenOnlyWhenShown(t *testing.T) {
	v := newVoteRig(t)
	quorum := v.r.quorum()
	d := v.propose(1)
	for i, id := range v.members[1:] {
		v.commit(id, 1, d, false)
		if decided := i+2 >= quorum; decided != (v.committed == 1) {
			t.Fatalf("after %d peer votes committed=%d", i+1, v.committed)
		}
	}
	if got := v.verifies(); got != 0 {
		t.Fatalf("%d signatures verified while counting votes, want 0", got)
	}
	v.r.HandleMessage(3, &Commit{View: 0, Seq: 1, Digest: d, Replica: 2, Sig: []byte("x")})
	v.r.HandleMessage(3, &Commit{View: 0, Seq: 2, Digest: d, Replica: 3})
	if v.rejected != 2 || v.verifies() != 0 {
		t.Fatalf("spoofed and unsigned votes: rejected %d (want 2), verifies %d (want 0)", v.rejected, v.verifies())
	}

	cert, known := v.r.Prove(1)
	if !known || cert == nil || !cert.Verify(v.suites[1], v.members, quorum) || len(cert.Signers) != quorum {
		t.Fatalf("Prove(1) = %+v, known=%v: want a verifying certificate of exactly %d signatures", cert, known, quorum)
	}
	if got := v.verifies(); got != uint64(quorum-1) {
		t.Errorf("Prove checked %d signatures, want quorum-1 = %d (its own needs none)", got, quorum-1)
	}
	if again, _ := v.r.Prove(1); again != cert || v.verifies() != uint64(quorum-1) {
		t.Errorf("second Prove: new certificate or new checks (%d)", v.verifies())
	}
	if _, known := v.r.Prove(9); known {
		t.Error("Prove claims to know an undecided sequence")
	}
}

// TestProveDefersOnBadVoteUntilSpareArrives: a vote with a garbage signature
// is among the n−f the decision was counted on. Prove drops and counts it,
// comes up short, and the next vote — arriving after the decision — completes
// the proof and fires Hooks.Proven. The bad vote's slot cannot be refilled.
func TestProveDefersOnBadVoteUntilSpareArrives(t *testing.T) {
	v := newVoteRig(t)
	d := v.propose(1)
	v.commit(1, 1, d, true)
	v.commit(2, 1, d, false)
	if v.committed != 1 {
		t.Fatal("not decided on n−f channel-authenticated votes")
	}
	if cert, known := v.r.Prove(1); cert != nil || !known || v.bad != 1 {
		t.Fatalf("Prove with a bad vote among n−f: cert=%v known=%v bad=%d, want nil, true, 1", cert, known, v.bad)
	}
	checked := v.verifies()
	if cert, _ := v.r.Prove(1); cert != nil || v.verifies() != checked {
		t.Fatal("a second Prove with no new vote must cost nothing and prove nothing")
	}
	v.commit(1, 1, d, false) // the forger tries again: its slot stays taken
	if v.proven != 0 {
		t.Fatal("a repeated vote from the bad voter completed the proof")
	}
	v.commit(3, 1, d, false)
	if v.proven != 1 || v.bad != 1 {
		t.Fatalf("after the spare vote: proven=%d bad=%d, want 1, 1", v.proven, v.bad)
	}
	cert, _ := v.r.Prove(1)
	if cert == nil || !cert.Verify(v.suites[2], v.members, v.r.quorum()) {
		t.Fatalf("proven certificate does not verify: %+v", cert)
	}
	for _, id := range cert.Signers {
		if id == 1 {
			t.Fatal("the bad voter is in the proven certificate")
		}
	}
}

// TestSpareVotesOutliveTheEntry: entries are collected at a stable checkpoint
// before anyone asked for a proof — for the checkpoint's own sequence even
// before its last commit vote arrived. The spare votes must survive with the
// logged decision, and keep arriving into it, so a later Prove — a new
// primary resharing a withheld round — still succeeds.
func TestSpareVotesOutliveTheEntry(t *testing.T) {
	v := newVoteRig(t)
	var digests [3]types.Digest
	for seq := uint64(1); seq <= 2; seq++ {
		d := v.propose(seq)
		digests[seq] = d
		v.commit(1, seq, d, true) // counted, garbage
		v.commit(2, seq, d, false)
	}
	v.commit(3, 1, digests[1], false) // seq 1's spare arrives while the entry lives
	if v.committed != 2 {
		t.Fatalf("committed %d of 2", v.committed)
	}
	hist := v.r.history[2]
	for _, id := range v.members[1:] {
		v.r.HandleMessage(id, &Checkpoint{Seq: 2, Digest: hist, Replica: id,
			Sig: v.suites[id].Sign(checkpointPayload(2, hist))})
	}
	if v.r.StableSeq() != 2 || len(v.r.entries) != 0 {
		t.Fatalf("checkpoint 2 not stable or entries not collected (stable %d, %d entries)", v.r.StableSeq(), len(v.r.entries))
	}
	if cert, known := v.r.Prove(2); cert != nil || !known {
		t.Fatalf("seq 2 proved from two valid votes: %+v known=%v", cert, known)
	}
	v.commit(3, 2, digests[2], false) // seq 2's spare arrives below the window
	if v.proven != 1 {
		t.Fatalf("the spare below the window did not complete the waiting proof (proven=%d)", v.proven)
	}
	for seq := uint64(1); seq <= 2; seq++ {
		cert, known := v.r.Prove(seq)
		if !known || cert == nil || !cert.Verify(v.suites[3], v.members, v.r.quorum()) {
			t.Fatalf("seq %d: Prove after collection = %+v known=%v", seq, cert, known)
		}
	}
	if v.bad != 2 {
		t.Errorf("bad votes counted %d, want 2", v.bad)
	}
	v.r.HandleMessage(7, &Commit{View: 0, Seq: 3, Digest: digests[1], Replica: 7, Sig: []byte("outsider")})
	if v.rejected != 1 {
		t.Errorf("a vote from outside the membership: rejected=%d, want 1", v.rejected)
	}
}
