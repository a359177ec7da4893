package core_test

import (
	"math/rand"
	"testing"
	"time"

	"resilientdb/internal/config"
	"resilientdb/internal/core"
	"resilientdb/internal/crypto"
	"resilientdb/internal/ledger"
	"resilientdb/internal/pbft"
	"resilientdb/internal/proto"
	"resilientdb/internal/types"
)

// Adversarial unit tests at the GeoBFT layer: forged remote view-change
// requests with exactly f malicious voters, and equivocating-history splices
// offered through the real catch-up path. Both must be rejected and counted
// (Config.OnVerifyReject), never silently dropped.

// worldEnv is a minimal proto.Env driving a replica directly: sends vanish,
// timers never fire, and the clock is set by the test.
type worldEnv struct {
	id    types.NodeID
	suite *crypto.Suite
	rng   *rand.Rand
	now   time.Duration
}

type stubTimer struct{}

func (stubTimer) Stop() {}

func (e *worldEnv) ID() types.NodeID                                { return e.id }
func (e *worldEnv) Now() time.Duration                              { return e.now }
func (e *worldEnv) Send(to types.NodeID, m types.Message)           {}
func (e *worldEnv) SetTimer(d time.Duration, fn func()) proto.Timer { return stubTimer{} }
func (e *worldEnv) Suite() *crypto.Suite                            { return e.suite }
func (e *worldEnv) Rand() *rand.Rand                                { return e.rng }

// world holds key material for every replica of a topology, so tests can
// play any subset of them — including coalitions larger than f.
type world struct {
	topo   config.Topology
	suites map[types.NodeID]*crypto.Suite
}

func newWorld(z, n int) *world {
	topo := config.NewTopology(z, n)
	dir := crypto.NewDirectory(crypto.Fast, topo.AllReplicas())
	w := &world{topo: topo, suites: make(map[types.NodeID]*crypto.Suite)}
	for _, id := range topo.AllReplicas() {
		w.suites[id] = crypto.NewSuite(dir, id, crypto.FreeCosts(), nil)
	}
	return w
}

// replica builds an initialized GeoBFT replica for id with a rejection
// counter attached.
func (w *world) replica(id types.NodeID, rejected *int) *core.Replica {
	r := core.NewReplica(core.Config{
		Topo: w.topo, Self: id,
		OnVerifyReject: func() { *rejected++ },
	})
	r.InitEnv(&worldEnv{id: id, suite: w.suites[id], rng: rand.New(rand.NewSource(int64(id))), now: time.Hour})
	return r
}

// cert builds a commit certificate for (seq, batch) signed by the first
// quorum members of the given cluster.
func (w *world) cert(cluster int, seq uint64, b types.Batch) *pbft.Certificate {
	members := w.topo.ClusterMembers(cluster)
	quorum := len(members) - w.topo.F()
	c := &pbft.Certificate{View: 0, Seq: seq, Digest: b.Digest(), Batch: b}
	payload := pbft.CommitPayload(0, seq, c.Digest)
	for _, id := range members[:quorum] {
		c.Signers = append(c.Signers, id)
		c.Sigs = append(c.Sigs, w.suites[id].Sign(payload))
	}
	return c
}

// signedRvc builds a remote view-change request signed by its claimed
// replica.
func (w *world) signedRvc(target, from types.ClusterID, round, v uint64, replica types.NodeID) *core.Rvc {
	m := &core.Rvc{Target: target, From: from, Round: round, V: v, Replica: replica}
	m.Sig = w.suites[replica].Sign(core.RvcPayload(m))
	return m
}

func TestRvcWithFMaliciousVoters(t *testing.T) {
	// z=2 n=4 (f=1): f+1 = 2 matching signed requests from cluster 1 depose
	// cluster 0's primary; any forged or mis-attributed vote must not count.
	cases := []struct {
		name      string
		deliver   func(w *world, r *core.Replica)
		forceVC   bool
		wantCount bool // at least one rejection counted
	}{
		{"two valid requests force the view change", func(w *world, r *core.Replica) {
			r.Receive(4, w.signedRvc(0, 1, 2, 0, 4))
			r.Receive(5, w.signedRvc(0, 1, 2, 0, 5))
		}, true, false},
		{"forged signature does not count toward f+1", func(w *world, r *core.Replica) {
			r.Receive(4, w.signedRvc(0, 1, 2, 0, 4))
			forged := w.signedRvc(0, 1, 2, 0, 5)
			forged.Sig = []byte("forged")
			r.Receive(5, forged)
		}, false, true},
		{"duplicate voter does not count twice", func(w *world, r *core.Replica) {
			m := w.signedRvc(0, 1, 2, 0, 4)
			r.Receive(4, m)
			r.Receive(4, m)
		}, false, false},
		{"origin cluster must match the signer's cluster", func(w *world, r *core.Replica) {
			// Replica 4 lives in cluster 1 but claims to speak for cluster 0.
			r.Receive(4, w.signedRvc(0, 0, 2, 0, 4))
			r.Receive(5, w.signedRvc(0, 0, 2, 0, 5))
		}, false, true},
		{"mis-routed target cluster", func(w *world, r *core.Replica) {
			r.Receive(4, w.signedRvc(1, 0, 2, 0, 4))
			r.Receive(5, w.signedRvc(1, 0, 2, 0, 5))
		}, false, true},
		{"spoofed sender relaying from outside the cluster", func(w *world, r *core.Replica) {
			// A remote node relays someone else's request: only local members
			// may forward (the signer itself must be the sender otherwise).
			r.Receive(6, w.signedRvc(0, 1, 2, 0, 4))
			r.Receive(7, w.signedRvc(0, 1, 2, 0, 5))
		}, false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(2, 4)
			rejected := 0
			r := w.replica(0, &rejected)
			tc.deliver(w, r)
			if got := r.Local().InViewChange(); got != tc.forceVC {
				t.Fatalf("InViewChange = %v, want %v", got, tc.forceVC)
			}
			if tc.wantCount && rejected == 0 {
				t.Fatal("forged Rvc vanished uncounted (OnVerifyReject never fired)")
			}
			if !tc.wantCount && rejected != 0 {
				t.Fatalf("honest exchange counted %d rejections", rejected)
			}
		})
	}
}

// equivocatingWorldHistories builds two certified GeoBFT histories that share
// rounds 1..common and then diverge in cluster 0's batches — every
// certificate individually valid, which with ≤f faults per cluster could
// never happen; the coalition signing both sides stands in for a >f world.
func equivocatingWorldHistories(w *world, common, extra int) (a, b *ledger.Ledger) {
	a, b = ledger.New(), ledger.New()
	for r := 1; r <= common+extra; r++ {
		for c := 0; c < w.topo.Clusters; c++ {
			ba := types.Batch{Client: types.ClientIDBase, Seq: uint64(r), Txns: []types.Transaction{{Key: uint64(c), Value: uint64(r)}}}
			bb := ba
			if c == 0 && r > common {
				bb = types.Batch{Client: types.ClientIDBase, Seq: uint64(r), Txns: []types.Transaction{{Key: uint64(c), Value: uint64(1000 + r)}}}
			}
			a.AppendCertified(uint64(r), types.ClusterID(c), ba, w.cert(c, uint64(r), ba))
			b.AppendCertified(uint64(r), types.ClusterID(c), bb, w.cert(c, uint64(r), bb))
		}
	}
	return a, b
}

// TestCatchUpRejectsSplicedHistory offers a replica that already executed a
// prefix of history A a catch-up response continuing history B. The response
// is certificate-valid block by block, but its linkage names B's chain: the
// import boundary must reject the splice atomically and count it.
func TestCatchUpRejectsSplicedHistory(t *testing.T) {
	w := newWorld(2, 4)
	histA, histB := equivocatingWorldHistories(w, 2, 2) // diverge from round 3
	rejected := 0
	r := w.replica(3, &rejected)
	// The replica recovered history A through round 3 (height 6) from disk.
	if err := r.Bootstrap(histA.Export(1, 6)); err != nil {
		t.Fatal(err)
	}
	if h := r.Ledger().Height(); h != 6 {
		t.Fatalf("bootstrap height = %d, want 6", h)
	}

	// A Byzantine peer answers catch-up with history B's continuation.
	r.Receive(2, &core.CatchUpResp{Blocks: histB.Export(7, 0), Height: histB.Height()})
	if h := r.Ledger().Height(); h != 6 {
		t.Fatalf("spliced catch-up accepted: height %d", h)
	}
	if rejected == 0 {
		t.Fatal("spliced catch-up vanished uncounted")
	}
	if got := r.CatchUpBlocks(); got != 0 {
		t.Fatalf("spliced blocks counted as imported: %d", got)
	}

	// A garbled certificate on an otherwise well-linked range is rejected by
	// certificate re-verification even when the forger re-seals the linkage.
	rejected = 0
	garbled := make([]*ledger.Block, 0, 2)
	prev := r.Ledger().Head()
	for _, src := range histB.Export(7, 0) {
		nb := *src
		cert := *(nb.Cert.(*pbft.Certificate))
		cert.Sigs = append([][]byte{[]byte("forged")}, cert.Sigs[1:]...)
		nb.Cert = &cert
		nb.Seal(prev)
		prev = nb.Hash
		garbled = append(garbled, &nb)
	}
	r.Receive(2, &core.CatchUpResp{Blocks: garbled, Height: 8})
	if h := r.Ledger().Height(); h != 6 {
		t.Fatalf("garbled re-sealed catch-up accepted: height %d", h)
	}
	if rejected == 0 {
		t.Fatal("garbled catch-up vanished uncounted")
	}

	// The genuine continuation of history A still imports and executes.
	r.Receive(2, &core.CatchUpResp{Blocks: histA.Export(7, 0), Height: histA.Height()})
	if h := r.Ledger().Height(); h != 8 {
		t.Fatalf("genuine catch-up rejected: height %d", h)
	}
	if err := r.Ledger().Verify(); err != nil {
		t.Fatal(err)
	}
	if got := r.ExecutedRound(); got != 4 {
		t.Fatalf("executed round = %d, want 4", got)
	}
}
