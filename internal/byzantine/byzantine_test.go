package byzantine_test

import (
	"testing"

	"resilientdb/internal/byzantine"
	"resilientdb/internal/config"
	"resilientdb/internal/core"
	"resilientdb/internal/crypto"
	"resilientdb/internal/ledger"
	"resilientdb/internal/pbft"
	"resilientdb/internal/types"
)

// world provisions real (Fast-mode) key material for a topology so tests can
// build genuinely verifiable certificates and check that every forgery fails
// verification.
type world struct {
	topo   config.Topology
	suites map[types.NodeID]*crypto.Suite
}

func newWorld() *world {
	topo := config.NewTopology(2, 4)
	dir := crypto.NewDirectory(crypto.Fast, topo.AllReplicas())
	w := &world{topo: topo, suites: make(map[types.NodeID]*crypto.Suite)}
	for _, id := range topo.AllReplicas() {
		w.suites[id] = crypto.NewSuite(dir, id, crypto.FreeCosts(), nil)
	}
	return w
}

func (w *world) quorum() int { return w.topo.PerCluster - w.topo.F() }

// cert builds a genuinely valid commit certificate for (cluster, seq, batch).
func (w *world) cert(cluster int, seq uint64, b types.Batch) *pbft.Certificate {
	c := &pbft.Certificate{View: 0, Seq: seq, Digest: b.Digest(), Batch: b}
	payload := pbft.CommitPayload(0, seq, c.Digest)
	for _, id := range w.topo.ClusterMembers(cluster)[:w.quorum()] {
		c.Signers = append(c.Signers, id)
		c.Sigs = append(c.Sigs, w.suites[id].Sign(payload))
	}
	return c
}

// chain builds a certified 2-round ledger across both clusters.
func (w *world) chain() *ledger.Ledger {
	l := ledger.New()
	for r := uint64(1); r <= 2; r++ {
		for c := 0; c < w.topo.Clusters; c++ {
			b := types.Batch{Client: types.ClientIDBase, Seq: r,
				Txns: []types.Transaction{{Key: uint64(c), Value: r}}}
			l.AppendCertified(r, types.ClusterID(c), b, w.cert(c, r, b))
		}
	}
	return l
}

// verifyBlock mirrors the protocol layer's import verification: the
// certificate must verify against the origin cluster's membership.
func (w *world) verifyBlock(b *ledger.Block) error {
	cert, ok := b.Cert.(*pbft.Certificate)
	if !ok || cert == nil {
		return errNoCert
	}
	if cert.Digest != b.BatchDigest {
		return errBadCert
	}
	if !cert.Verify(w.suites[0], w.topo.ClusterMembers(int(b.Cluster)), w.quorum()) {
		return errBadCert
	}
	return nil
}

var (
	errNoCert  = &verifyErr{"no certificate"}
	errBadCert = &verifyErr{"bad certificate"}
)

type verifyErr struct{ s string }

func (e *verifyErr) Error() string { return e.s }

func TestAdversaryDisarmedPassesThrough(t *testing.T) {
	w := newWorld()
	fleet := byzantine.NewFleet(7)
	adv := fleet.Adversary(w.topo, crypto.Fast, w.topo.ReplicaID(0, 1),
		&byzantine.Suppressor{Victims: []types.NodeID{w.topo.ReplicaID(0, 3)}})
	if _, ok := fleet.Intercept(adv.ID(), w.topo.ReplicaID(0, 3), &pbft.Checkpoint{Seq: 1}); ok {
		t.Fatal("disarmed adversary intercepted")
	}
	adv.Arm()
	ds, ok := fleet.Intercept(adv.ID(), w.topo.ReplicaID(0, 3), &pbft.Checkpoint{Seq: 1})
	if !ok || len(ds) != 0 {
		t.Fatalf("armed suppressor: intercepted=%v deliveries=%d", ok, len(ds))
	}
	if st := adv.Stats(); st.Suppressed != 1 || st.Intercepted != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Honest senders and non-victims are never touched.
	if _, ok := fleet.Intercept(w.topo.ReplicaID(0, 2), w.topo.ReplicaID(0, 3), &pbft.Checkpoint{}); ok {
		t.Fatal("honest sender intercepted")
	}
	if _, ok := fleet.Intercept(adv.ID(), w.topo.ReplicaID(0, 2), &pbft.Checkpoint{}); ok {
		t.Fatal("non-victim suppressed")
	}
}

func TestForgedSharesAllFailVerification(t *testing.T) {
	w := newWorld()
	fleet := byzantine.NewFleet(7)
	adv := fleet.Adversary(w.topo, crypto.Fast, w.topo.ReplicaID(1, 0), &byzantine.ShareForger{})
	adv.Arm()

	b := types.Batch{Client: types.ClientIDBase, Seq: 3, Txns: []types.Transaction{{Key: 1, Value: 2}}}
	cert := w.cert(1, 3, b)
	share := &core.GlobalShare{Cluster: 1, Round: 3, Cert: cert}
	members := w.topo.ClusterMembers(1)
	if !cert.Verify(w.suites[0], members, w.quorum()) {
		t.Fatal("honest certificate must verify")
	}

	remote := w.topo.ReplicaID(0, 1)
	for i := 0; i < 5; i++ {
		ds, ok := adv.Rewrite(remote, share)
		if !ok || len(ds) != 1 {
			t.Fatalf("variant %d: intercepted=%v deliveries=%d", i, ok, len(ds))
		}
		forged := ds[0].Msg.(*core.GlobalShare)
		if forged.Cert.Verify(w.suites[0], members, w.quorum()) && forged.Cert.Digest == forged.Cert.Batch.Digest() {
			t.Fatalf("variant %d: forged certificate verifies", i)
		}
	}
	// Local cluster traffic is untouched (the forger stays locally honest).
	if _, ok := adv.Rewrite(w.topo.ReplicaID(1, 2), share); ok {
		t.Fatal("share-forger garbled local traffic")
	}
	// The honest original was never mutated.
	if !cert.Verify(w.suites[0], members, w.quorum()) {
		t.Fatal("forgery mutated the shared original certificate")
	}
	if st := adv.Stats(); st.Tampered != 5 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestForgedForwardsKeyedOnLocalRecipients: the Local variant leaves what the
// replica sends to other clusters alone and replaces each copy it forwards
// inside its own cluster by two forgeries — one of the same round, which can
// never be counted with the genuine copy: its key (core.ShareKey) differs, or
// it has none (the padded variant, every genuine byte plus a signature, which
// an honest replica rejects unkeyed) — and one relabelled to the next round,
// well formed (Seq == Round, a key) so that it is held. Neither verifies.
func TestForgedForwardsKeyedOnLocalRecipients(t *testing.T) {
	w := newWorld()
	fleet := byzantine.NewFleet(7)
	adv := fleet.Adversary(w.topo, crypto.Fast, w.topo.ReplicaID(0, 1), &byzantine.ShareForger{Local: true})
	adv.Arm()

	b := types.Batch{Client: types.ClientIDBase, Seq: 3, Txns: []types.Transaction{{Key: 1, Value: 2}}}
	cert := w.cert(1, 3, b)
	share := &core.GlobalShare{Cluster: 1, Round: 3, Cert: cert}
	members := w.topo.ClusterMembers(1)
	genuine, _ := core.ShareKey(share)

	if _, ok := adv.Rewrite(w.topo.ReplicaID(1, 1), share); ok {
		t.Fatal("forward-forger touched cross-cluster traffic")
	}
	unkeyed := 0
	for i := 0; i < 5; i++ {
		ds, ok := adv.Rewrite(w.topo.ReplicaID(0, 2), share)
		if !ok || len(ds) != 2 {
			t.Fatalf("variant %d: intercepted=%v deliveries=%d, want 2", i, ok, len(ds))
		}
		for j, d := range ds {
			forged := d.Msg.(*core.GlobalShare)
			if forged.Round != share.Round+uint64(j) || forged.Cert.Seq != forged.Round {
				t.Fatalf("variant %d/%d: round %d seq %d", i, j, forged.Round, forged.Cert.Seq)
			}
			key, ok := core.ShareKey(forged)
			if key == genuine {
				t.Fatalf("variant %d/%d: forgery has the genuine copy's key", i, j)
			}
			if !ok && j == 1 {
				t.Fatalf("variant %d: the next-round forgery has no key and would not be held", i)
			}
			if !ok {
				unkeyed++
			}
			if forged.Cert.Verify(w.suites[0], members, w.quorum()) && forged.Cert.Digest == forged.Cert.Batch.Digest() {
				t.Fatalf("variant %d/%d: forged certificate verifies", i, j)
			}
		}
	}
	if !cert.Verify(w.suites[0], members, w.quorum()) || share.Round != 3 {
		t.Fatal("forgery mutated the shared original")
	}
	if unkeyed != 2 {
		t.Errorf("%d same-round forgeries without a key, want 2 (a signature short, a signature too many)", unkeyed)
	}
	if st := adv.Stats(); st.Tampered != 5 || st.Injected != 5 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEquivocatingPrimaryCoalition(t *testing.T) {
	w := newWorld()
	fleet := byzantine.NewFleet(7)
	primary := fleet.Adversary(w.topo, crypto.Fast, w.topo.ReplicaID(0, 0),
		&byzantine.EquivocatingPrimary{Detector: true})
	voter := fleet.Adversary(w.topo, crypto.Fast, w.topo.ReplicaID(0, 1), byzantine.DoubleVoter{})
	primary.Arm()
	voter.Arm()

	victim := primary.DefaultVictim()
	detector := primary.DefaultDetector()
	if victim != w.topo.ReplicaID(0, 3) || detector != w.topo.ReplicaID(0, 1) {
		t.Fatalf("victim=%v detector=%v", victim, detector)
	}

	b := types.Batch{Client: types.ClientIDBase, Seq: 1, Txns: []types.Transaction{{Key: 1, Value: 7}}}
	pp := &pbft.PrePrepare{View: 0, Seq: 1, Digest: b.Digest(), Batch: b}

	// The victim receives the conflicting twin.
	ds, ok := primary.Rewrite(victim, pp)
	if !ok || len(ds) != 1 {
		t.Fatalf("victim rewrite: ok=%v n=%d", ok, len(ds))
	}
	twin := ds[0].Msg.(*pbft.PrePrepare)
	if twin.Digest == pp.Digest || twin.Batch.Digest() != twin.Digest || twin.Seq != pp.Seq {
		t.Fatalf("twin is not a well-formed conflicting proposal: %+v", twin)
	}

	// The detector receives both — provable equivocation.
	ds, ok = primary.Rewrite(detector, pp)
	if !ok || len(ds) != 2 {
		t.Fatalf("detector rewrite: ok=%v n=%d", ok, len(ds))
	}
	if ds[0].Msg.(*pbft.PrePrepare).Digest != pp.Digest || ds[1].Msg.(*pbft.PrePrepare).Digest != twin.Digest {
		t.Fatal("detector must see the real proposal and the twin")
	}

	// Other members see only the honest proposal.
	if _, ok := primary.Rewrite(w.topo.ReplicaID(0, 2), pp); ok {
		t.Fatal("non-victim received a rewrite")
	}

	// Both coalition members countersign the fork toward the victim, with
	// genuinely valid signatures over the twin digest.
	for _, a := range []*byzantine.Adversary{primary, voter} {
		commit := &pbft.Commit{View: 0, Seq: 1, Digest: pp.Digest, Replica: a.ID(),
			Sig: w.suites[a.ID()].Sign(pbft.CommitPayload(0, 1, pp.Digest))}
		ds, ok := a.Rewrite(victim, commit)
		if !ok || len(ds) != 1 {
			t.Fatalf("%v commit rewrite: ok=%v n=%d", a.ID(), ok, len(ds))
		}
		forged := ds[0].Msg.(*pbft.Commit)
		if forged.Digest != twin.Digest {
			t.Fatal("countersigned commit does not support the fork")
		}
		if !w.suites[0].Verify(a.ID(), pbft.CommitPayload(0, 1, twin.Digest), forged.Sig) {
			t.Fatal("countersigned commit signature invalid")
		}
		// Votes to non-victims pass through.
		if _, ok := a.Rewrite(w.topo.ReplicaID(0, 2), commit); ok {
			t.Fatal("vote to non-victim rewritten")
		}
	}
	if st := primary.Stats(); st.Forked != 1 {
		t.Fatalf("primary stats = %+v", st)
	}
}

func TestEquivocatingPrimaryRoundsCap(t *testing.T) {
	w := newWorld()
	fleet := byzantine.NewFleet(7)
	adv := fleet.Adversary(w.topo, crypto.Fast, w.topo.ReplicaID(0, 0),
		&byzantine.EquivocatingPrimary{Rounds: 2})
	adv.Arm()
	victim := adv.DefaultVictim()
	for seq := uint64(1); seq <= 4; seq++ {
		b := types.Batch{Client: types.ClientIDBase, Seq: seq, Txns: []types.Transaction{{Key: seq, Value: 1}}}
		pp := &pbft.PrePrepare{View: 0, Seq: seq, Digest: b.Digest(), Batch: b}
		_, ok := adv.Rewrite(victim, pp)
		if want := seq <= 2; ok != want {
			t.Fatalf("seq %d: intercepted=%v want %v", seq, ok, want)
		}
	}
	if st := adv.Stats(); st.Forked != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTamperedCatchupAllRejectedByImport(t *testing.T) {
	w := newWorld()
	fleet := byzantine.NewFleet(7)
	adv := fleet.Adversary(w.topo, crypto.Fast, w.topo.ReplicaID(0, 1),
		&byzantine.CatchupTamperer{Victim: types.NoNode, Inject: 1})
	adv.Arm()

	src := w.chain()
	resp := &core.CatchUpResp{Blocks: src.Export(1, 0), Height: src.Height()}
	peer := w.topo.ReplicaID(0, 2)

	// The honest response imports cleanly.
	if err := ledger.New().Import(resp.Blocks, w.verifyBlock); err != nil {
		t.Fatalf("honest catch-up rejected: %v", err)
	}

	// Every tamper variant must fail import into a fresh ledger.
	for i := 0; i < 4; i++ {
		ds, ok := adv.Rewrite(peer, resp)
		if !ok || len(ds) != 1 {
			t.Fatalf("variant %d: ok=%v n=%d", i, ok, len(ds))
		}
		tampered := ds[0].Msg.(*core.CatchUpResp)
		if err := ledger.New().Import(tampered.Blocks, w.verifyBlock); err == nil {
			t.Fatalf("tamper variant %d imported", i)
		}
	}
	// The source ledger was never mutated by the forgeries.
	if err := src.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := ledger.New().Import(src.Export(1, 0), w.verifyBlock); err != nil {
		t.Fatalf("original chain no longer imports: %v", err)
	}

	// Injection rides along on unrelated traffic, aimed at the victim, and
	// its fabricated chain is certificate-garbage.
	ds, ok := adv.Rewrite(peer, &pbft.Checkpoint{Seq: 6})
	if !ok || len(ds) != 2 {
		t.Fatalf("injection: ok=%v n=%d", ok, len(ds))
	}
	if ds[0].Msg.(*pbft.Checkpoint).Seq != 6 {
		t.Fatal("original message must still flow")
	}
	if ds[1].To != adv.DefaultVictim() {
		t.Fatalf("injection aimed at %v, want %v", ds[1].To, adv.DefaultVictim())
	}
	forged := ds[1].Msg.(*core.CatchUpResp)
	if err := ledger.New().Import(forged.Blocks, w.verifyBlock); err == nil {
		t.Fatal("fabricated chain imported")
	}
	// The linkage is deliberately sound so certificate verification is the
	// check being exercised.
	if err := ledger.New().Import(forged.Blocks, nil); err != nil {
		t.Fatalf("fabricated chain should be linkage-clean, got %v", err)
	}
	// Inject cap reached: no more fabrications.
	if _, ok := adv.Rewrite(peer, &pbft.Checkpoint{Seq: 7}); ok {
		t.Fatal("injection cap ignored")
	}
	if st := adv.Stats(); st.Tampered != 4 || st.Injected != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCorpusMessagesRoundTrip(t *testing.T) {
	msgs := byzantine.CorpusMessages()
	if len(msgs) < 10 {
		t.Fatalf("corpus has %d messages", len(msgs))
	}
	w := newWorld()
	for i, m := range msgs {
		buf, err := types.EncodeMessage(m)
		if err != nil {
			t.Fatalf("corpus %d (%s): encode: %v", i, m.MsgType(), err)
		}
		decoded, err := types.DecodeMessage(buf)
		if err != nil {
			t.Fatalf("corpus %d (%s): decode: %v", i, m.MsgType(), err)
		}
		// Forged shares must never re-verify after the round trip.
		if gs, ok := decoded.(*core.GlobalShare); ok && gs.Cert != nil {
			cluster := int(gs.Cluster)
			if gs.Cert.Verify(w.suites[0], w.topo.ClusterMembers(cluster), w.quorum()) &&
				gs.Cert.Seq == gs.Round {
				t.Fatalf("corpus %d: forged share verifies after decode", i)
			}
		}
	}
}

func TestScriptByName(t *testing.T) {
	w := newWorld()
	for _, name := range []string{"equivocate", "forge-shares", "vc-spam", "tamper-catchup", "suppress"} {
		s, err := byzantine.ScriptByName(name, w.topo, w.topo.ReplicaID(0, 0))
		if err != nil || s == nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := byzantine.ScriptByName("nonsense", w.topo, 0); err == nil {
		t.Fatal("unknown script accepted")
	}
}

func TestComposeFirstInterceptorWins(t *testing.T) {
	w := newWorld()
	fleet := byzantine.NewFleet(7)
	victim := w.topo.ReplicaID(0, 3)
	script := byzantine.Compose(
		&byzantine.Suppressor{Victims: []types.NodeID{victim}, Types: []string{"pbft/checkpoint"}},
		&byzantine.ViewChangeSpammer{Every: 1},
	)
	adv := fleet.Adversary(w.topo, crypto.Fast, w.topo.ReplicaID(0, 1), script)
	adv.Arm()

	// Checkpoint to the victim: suppressed by the first script.
	if ds, ok := adv.Rewrite(victim, &pbft.Checkpoint{}); !ok || len(ds) != 0 {
		t.Fatalf("suppression: ok=%v n=%d", ok, len(ds))
	}
	// Any other message falls through to the spammer (Every=1: always fires)
	// and the original still flows first.
	ds, ok := adv.Rewrite(w.topo.ReplicaID(0, 2), &pbft.Prepare{Replica: adv.ID()})
	if !ok || len(ds) != 3 {
		t.Fatalf("spam: ok=%v n=%d", ok, len(ds))
	}
	if _, isPrep := ds[0].Msg.(*pbft.Prepare); !isPrep {
		t.Fatal("original message must be delivered first")
	}
	st := adv.Stats()
	if st.Suppressed != 1 || st.Spammed != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestVoteForger: every vote keeps its routing and loses its signature, the
// original (shared with the other recipients) is never touched, shares are
// withheld only across clusters and only when asked, and SilentAfter ends
// everything.
func TestVoteForger(t *testing.T) {
	w := newWorld()
	fleet := byzantine.NewFleet(7)
	self := w.topo.ReplicaID(0, 0)
	adv := fleet.Adversary(w.topo, crypto.Fast, self, &byzantine.VoteForger{WithholdShares: true, SilentAfter: 3})
	adv.Arm()
	peer, remote := w.topo.ReplicaID(0, 2), w.topo.ReplicaID(1, 1)

	d := types.Hash([]byte("batch"))
	commit := &pbft.Commit{View: 0, Seq: 1, Digest: d, Replica: self, Sig: w.suites[self].Sign(pbft.CommitPayload(0, 1, d))}
	prepare := &pbft.Prepare{View: 0, Seq: 1, Digest: d, Replica: self, Sig: w.suites[self].Sign(pbft.PreparePayload(0, 1, d))}
	for _, vote := range []types.Message{commit, prepare} {
		ds, ok := adv.Rewrite(peer, vote)
		if !ok || len(ds) != 1 || ds[0].To != peer || ds[0].Msg == vote {
			t.Fatalf("%s: ok=%v deliveries=%v", vote.MsgType(), ok, ds)
		}
	}
	ds, _ := adv.Rewrite(peer, commit)
	forged := ds[0].Msg.(*pbft.Commit)
	if forged.View != 0 || forged.Seq != 1 || forged.Digest != d || forged.Replica != self {
		t.Fatalf("forged vote lost its routing: %+v", forged)
	}
	if w.suites[peer].Verify(self, pbft.CommitPayload(0, 1, d), forged.Sig) {
		t.Fatal("forged vote still verifies")
	}
	if !w.suites[peer].Verify(self, pbft.CommitPayload(0, 1, d), commit.Sig) {
		t.Fatal("forging mutated the original vote")
	}

	// Three votes forged: silent from here on, shares and votes alike.
	share := &core.GlobalShare{Cluster: 0, Round: 1, Cert: &pbft.Certificate{}}
	for _, to := range []types.NodeID{peer, remote} {
		for _, m := range []types.Message{commit, share} {
			if ds, ok := adv.Rewrite(to, m); !ok || ds != nil {
				t.Fatalf("silent forger sent %s to %v", m.MsgType(), to)
			}
		}
	}
	if st := adv.Stats(); st.Tampered != 3 || st.Suppressed != 4 {
		t.Fatalf("stats = %+v, want 3 tampered, 4 suppressed", st)
	}

	// Without SilentAfter: shares are withheld across clusters only.
	adv = fleet.Adversary(w.topo, crypto.Fast, self, &byzantine.VoteForger{WithholdShares: true})
	adv.Arm()
	if ds, ok := adv.Rewrite(remote, share); !ok || ds != nil {
		t.Fatal("cross-cluster share not withheld")
	}
	if _, ok := adv.Rewrite(peer, share); ok {
		t.Fatal("local share forward intercepted")
	}
}
