package core_test

import (
	"testing"
	"time"

	"resilientdb/internal/config"
	"resilientdb/internal/core"
	"resilientdb/internal/crypto"
	"resilientdb/internal/pbft"
	"resilientdb/internal/proto"
	"resilientdb/internal/simnet"
	"resilientdb/internal/types"
	"resilientdb/internal/ycsb"
)

// geoClient drives one cluster of a GeoBFT deployment closed-loop: window
// outstanding batches, f+1 matching local replies to complete, rebroadcast
// to the whole local cluster on timeout.
type geoClient struct {
	topo      config.Topology
	cluster   int
	f         int
	batchSize int
	total     int
	window    int

	env       *simnet.Env
	wl        *ycsb.Workload
	nextSeq   uint64
	acks      map[uint64]map[types.NodeID]bool
	done      map[uint64]bool
	reqs      map[uint64]*pbft.Request
	completed int
}

func (c *geoClient) Init(env *simnet.Env) {
	c.env = env
	c.wl = ycsb.NewWorkload(10_000, ycsb.DefaultTheta, int64(env.ID()))
	c.acks = make(map[uint64]map[types.NodeID]bool)
	c.done = make(map[uint64]bool)
	c.reqs = make(map[uint64]*pbft.Request)
	for i := 0; i < c.window && int(c.nextSeq) < c.total; i++ {
		c.submit()
	}
}

func (c *geoClient) submit() {
	c.nextSeq++
	seq := c.nextSeq
	b := c.wl.MakeBatch(c.env.ID(), seq, c.batchSize)
	req := &pbft.Request{Batch: b, Sig: c.env.Suite().Sign(pbft.RequestPayload(&b))}
	c.reqs[seq] = req
	c.env.Send(c.topo.ReplicaID(c.cluster, 0), req)
	c.armRetry(seq)
}

func (c *geoClient) armRetry(seq uint64) {
	c.env.SetTimer(5*time.Second, func() {
		if c.done[seq] {
			return
		}
		for _, m := range c.topo.ClusterMembers(c.cluster) {
			c.env.Send(m, c.reqs[seq])
		}
		c.armRetry(seq)
	})
}

func (c *geoClient) Receive(from types.NodeID, msg types.Message) {
	rep, ok := msg.(*proto.Reply)
	if !ok || c.done[rep.ClientSeq] {
		return
	}
	if int(c.topo.ClusterOf(from)) != c.cluster {
		return // only the local cluster informs us (Section 2.4)
	}
	set := c.acks[rep.ClientSeq]
	if set == nil {
		set = make(map[types.NodeID]bool)
		c.acks[rep.ClientSeq] = set
	}
	set[from] = true
	if len(set) >= c.f+1 {
		c.done[rep.ClientSeq] = true
		delete(c.reqs, rep.ClientSeq)
		c.completed++
		if int(c.nextSeq) < c.total {
			c.submit()
		}
	}
}

type deployment struct {
	net     *simnet.Network
	topo    config.Topology
	reps    map[types.NodeID]*core.Replica
	clients []*geoClient
}

// deploy builds a z×n GeoBFT deployment over the Table-1 profile with one
// client per cluster submitting `total` batches.
func deploy(t *testing.T, z, n, total int, opts simnet.Options) *deployment {
	t.Helper()
	topo := config.NewTopology(z, n)
	if opts.Profile == nil {
		opts.Profile = config.GoogleCloudProfile(z)
	}
	if opts.Seed == 0 {
		opts.Seed = 21
	}
	net := simnet.New(opts)
	d := &deployment{net: net, topo: topo, reps: make(map[types.NodeID]*core.Replica)}
	for c := 0; c < z; c++ {
		for i := 0; i < n; i++ {
			id := topo.ReplicaID(c, i)
			rep := core.NewReplica(core.Config{
				Topo: topo, Self: id, Records: 1000,
				LocalTimeout:  time.Second,
				RemoteTimeout: 2 * time.Second,
			})
			d.reps[id] = rep
			net.AddNode(id, c, rep)
		}
	}
	for c := 0; c < z; c++ {
		cl := &geoClient{
			topo: topo, cluster: c, f: topo.F(),
			batchSize: 10, total: total, window: 3,
		}
		d.clients = append(d.clients, cl)
		net.AddNode(config.ClientID(c), c, cl)
	}
	return d
}

func (d *deployment) assertConvergence(t *testing.T, crashed map[types.NodeID]bool) {
	t.Helper()
	var ref *core.Replica
	var refID types.NodeID
	for _, id := range d.topo.AllReplicas() {
		if crashed[id] {
			continue
		}
		r := d.reps[id]
		if ref == nil {
			ref, refID = r, id
			continue
		}
		if r.Ledger().Height() != ref.Ledger().Height() {
			t.Errorf("%v ledger height %d != %v's %d", id, r.Ledger().Height(), refID, ref.Ledger().Height())
			continue
		}
		if r.Ledger().Head() != ref.Ledger().Head() {
			t.Errorf("%v ledger head differs from %v", id, refID)
		}
		if r.Store().Digest() != ref.Store().Digest() {
			t.Errorf("%v store digest differs from %v", id, refID)
		}
	}
	if ref != nil {
		if err := ref.Ledger().Verify(); err != nil {
			t.Errorf("ledger verify: %v", err)
		}
	}
}

func (d *deployment) completedAll() bool {
	for _, c := range d.clients {
		if c.completed != c.total {
			return false
		}
	}
	return true
}

func TestTwoClustersNormalCase(t *testing.T) {
	d := deploy(t, 2, 4, 10, simnet.Options{})
	d.net.RunUntil(120 * time.Second)
	for i, c := range d.clients {
		if c.completed != c.total {
			t.Errorf("cluster %d client completed %d/%d", i, c.completed, c.total)
		}
	}
	d.assertConvergence(t, nil)
	// Every round appends z blocks: height = z × rounds.
	ref := d.reps[0]
	if ref.Ledger().Height() == 0 || ref.Ledger().Height()%2 != 0 {
		t.Errorf("ledger height %d not a multiple of z=2", ref.Ledger().Height())
	}
}

func TestSixClustersGeoScale(t *testing.T) {
	d := deploy(t, 6, 4, 6, simnet.Options{Seed: 5})
	d.net.RunUntil(240 * time.Second)
	for i, c := range d.clients {
		if c.completed != c.total {
			t.Errorf("cluster %d client completed %d/%d", i, c.completed, c.total)
		}
	}
	d.assertConvergence(t, nil)
}

func TestRealCryptoTwoClusters(t *testing.T) {
	d := deploy(t, 2, 4, 5, simnet.Options{Mode: crypto.Real, Seed: 13})
	d.net.RunUntil(120 * time.Second)
	if !d.completedAll() {
		t.Errorf("not all clients completed under real crypto")
	}
	d.assertConvergence(t, nil)
}

func TestBackupFailuresPerCluster(t *testing.T) {
	// f backup failures in every cluster: GeoBFT's design worst case
	// (Section 4.3).
	d := deploy(t, 3, 4, 8, simnet.Options{Seed: 31})
	crashed := map[types.NodeID]bool{}
	for c := 0; c < 3; c++ {
		id := d.topo.ReplicaID(c, 3) // one backup per cluster (f=1)
		d.net.Crash(id)
		crashed[id] = true
	}
	d.net.RunUntil(240 * time.Second)
	for i, c := range d.clients {
		if c.completed != c.total {
			t.Errorf("cluster %d client completed %d/%d with f failures", i, c.completed, c.total)
		}
	}
	d.assertConvergence(t, crashed)
}

func TestRemoteViewChangeOnPrimaryCrash(t *testing.T) {
	// Crash the primary of cluster 0 mid-run. Other clusters must detect the
	// missing certificates, run the remote view-change protocol, and force
	// cluster 0 to elect a new primary that resumes sharing (Figure 7).
	d := deploy(t, 2, 4, 40, simnet.Options{Seed: 17})
	d.net.RunUntil(150 * time.Millisecond)
	victim := d.topo.ReplicaID(0, 0)
	if d.reps[victim].ExecutedRound() == 0 {
		t.Fatal("test setup: no rounds executed before crash point")
	}
	preCrash := d.clients[0].completed
	if preCrash == d.clients[0].total {
		t.Fatal("test setup: workload finished before crash point")
	}
	d.net.Crash(victim)
	d.net.RunUntil(600 * time.Second)

	for i, c := range d.clients {
		if c.completed != c.total {
			t.Errorf("cluster %d client completed %d/%d after remote view-change", i, c.completed, c.total)
		}
	}
	crashed := map[types.NodeID]bool{victim: true}
	d.assertConvergence(t, crashed)
	// Cluster 0's survivors must have moved past view 0.
	for i := 1; i < 4; i++ {
		id := d.topo.ReplicaID(0, i)
		if d.reps[id].Local().View() == 0 {
			t.Errorf("replica %v never changed view", id)
		}
	}
}

func TestNoOpFillWhenOneClusterIdle(t *testing.T) {
	// Cluster 1 has no client load; its primary must propose no-ops so the
	// loaded cluster's rounds can execute (Section 2.5).
	topo := config.NewTopology(2, 4)
	net := simnet.New(simnet.Options{Profile: config.GoogleCloudProfile(2), Seed: 23})
	reps := make(map[types.NodeID]*core.Replica)
	for c := 0; c < 2; c++ {
		for i := 0; i < 4; i++ {
			id := topo.ReplicaID(c, i)
			rep := core.NewReplica(core.Config{Topo: topo, Self: id, Records: 100,
				LocalTimeout: time.Second, RemoteTimeout: 2 * time.Second})
			reps[id] = rep
			net.AddNode(id, c, rep)
		}
	}
	cl := &geoClient{topo: topo, cluster: 0, f: 1, batchSize: 5, total: 8, window: 2}
	net.AddNode(config.ClientID(0), 0, cl)
	net.RunUntil(240 * time.Second)
	if cl.completed != cl.total {
		t.Fatalf("client completed %d/%d with idle remote cluster", cl.completed, cl.total)
	}
	// The idle cluster's slots must be filled with no-ops.
	ref := reps[topo.ReplicaID(0, 0)]
	noops := 0
	for h := uint64(1); h <= ref.Ledger().Height(); h++ {
		b := ref.Ledger().Block(h)
		if b.Cluster == 1 && b.Batch.NoOp {
			noops++
		}
	}
	if noops == 0 {
		t.Error("no no-op blocks from the idle cluster")
	}
	// An idle cluster fills at once: it never holds a round open (no grace).
	for id, r := range reps {
		if st := r.RoundStats(); st.GracesArmed != 0 {
			t.Errorf("replica %v armed %d no-op graces under one-sided load", id, st.GracesArmed)
		}
	}
}

func TestSafetyAcrossSeedsProperty(t *testing.T) {
	// Across seeds: crash one random backup per cluster mid-run; ledgers of
	// all surviving replicas must agree (non-divergence, Theorem 2.8).
	for seed := int64(1); seed <= 4; seed++ {
		d := deploy(t, 2, 4, 6, simnet.Options{Seed: seed * 101})
		crashAt := time.Duration(100+seed*70) * time.Millisecond
		crashed := map[types.NodeID]bool{}
		for c := 0; c < 2; c++ {
			id := d.topo.ReplicaID(c, 1+int(seed)%3)
			crashed[id] = true
		}
		d.net.RunUntil(crashAt)
		for id := range crashed {
			d.net.Crash(id)
		}
		d.net.RunUntil(300 * time.Second)
		if !d.completedAll() {
			t.Errorf("seed %d: clients incomplete", seed)
		}
		d.assertConvergence(t, crashed)
	}
}

func TestLedgerBlocksAlternateClusters(t *testing.T) {
	d := deploy(t, 3, 4, 5, simnet.Options{Seed: 41})
	d.net.RunUntil(240 * time.Second)
	if !d.completedAll() {
		t.Fatal("clients incomplete")
	}
	ref := d.reps[0].Ledger()
	for h := uint64(1); h <= ref.Height(); h++ {
		b := ref.Block(h)
		wantCluster := types.ClusterID((h - 1) % 3)
		if b.Cluster != wantCluster {
			t.Fatalf("block %d from cluster %d, want %d (deterministic order)", h, b.Cluster, wantCluster)
		}
		if b.Round != (h-1)/3+1 {
			t.Fatalf("block %d has round %d", h, b.Round)
		}
	}
}
