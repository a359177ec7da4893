package core_test

import (
	"fmt"
	"testing"
	"time"

	"resilientdb/internal/config"
	"resilientdb/internal/core"
	"resilientdb/internal/crypto"
	"resilientdb/internal/detsim"
	"resilientdb/internal/types"
)

type deployment struct {
	net     *detsim.Network
	topo    config.Topology
	reps    map[types.NodeID]*core.Replica
	clients []*detsim.Client
}

// deploy builds a z×n GeoBFT deployment on the deterministic simulator, over
// the Table-1 profile unless opts names one, with one client per cluster
// submitting total batches of ten, three outstanding. A test may reshape a
// client before the first run (Window 0 leaves its cluster idle).
func deploy(t *testing.T, z, n, total int, opts detsim.Options) *deployment {
	t.Helper()
	topo := config.NewTopology(z, n)
	if opts.Profile == nil {
		opts.Profile = config.GoogleCloudProfile(z)
	}
	if opts.Seed == 0 {
		opts.Seed = 21
	}
	net := detsim.New(opts)
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
		cl := &detsim.Client{Group: topo.ClusterMembers(c), Window: 3, BatchSize: 10, Total: total}
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
		if c.Completed() != c.Total {
			return false
		}
	}
	return true
}

func TestTwoClustersNormalCase(t *testing.T) {
	d := deploy(t, 2, 4, 10, detsim.Options{})
	d.net.RunUntil(120 * time.Second)
	for i, c := range d.clients {
		if c.Completed() != c.Total {
			t.Errorf("cluster %d client completed %d/%d", i, c.Completed(), c.Total)
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
	d := deploy(t, 6, 4, 6, detsim.Options{Seed: 5})
	d.net.RunUntil(240 * time.Second)
	for i, c := range d.clients {
		if c.Completed() != c.Total {
			t.Errorf("cluster %d client completed %d/%d", i, c.Completed(), c.Total)
		}
	}
	d.assertConvergence(t, nil)
}

func TestRealCryptoTwoClusters(t *testing.T) {
	d := deploy(t, 2, 4, 5, detsim.Options{Mode: crypto.Real, Seed: 13})
	d.net.RunUntil(120 * time.Second)
	if !d.completedAll() {
		t.Errorf("not all clients completed under real crypto")
	}
	d.assertConvergence(t, nil)
}

func TestBackupFailuresPerCluster(t *testing.T) {
	// f backup failures in every cluster: GeoBFT's design worst case
	// (Section 4.3).
	d := deploy(t, 3, 4, 8, detsim.Options{Seed: 31})
	crashed := map[types.NodeID]bool{}
	for c := 0; c < 3; c++ {
		id := d.topo.ReplicaID(c, 3) // one backup per cluster (f=1)
		d.net.Crash(id)
		crashed[id] = true
	}
	d.net.RunUntil(240 * time.Second)
	for i, c := range d.clients {
		if c.Completed() != c.Total {
			t.Errorf("cluster %d client completed %d/%d with f failures", i, c.Completed(), c.Total)
		}
	}
	d.assertConvergence(t, crashed)
}

func TestRemoteViewChangeOnPrimaryCrash(t *testing.T) {
	// Crash the primary of cluster 0 mid-run. Other clusters must detect the
	// missing certificates, run the remote view-change protocol, and force
	// cluster 0 to elect a new primary that resumes sharing (Figure 7).
	d := deploy(t, 2, 4, 40, detsim.Options{Seed: 17})
	d.net.RunUntil(150 * time.Millisecond)
	victim := d.topo.ReplicaID(0, 0)
	if d.reps[victim].ExecutedRound() == 0 {
		t.Fatal("test setup: no rounds executed before crash point")
	}
	if d.clients[0].Completed() == d.clients[0].Total {
		t.Fatal("test setup: workload finished before crash point")
	}
	d.net.Crash(victim)
	d.net.RunUntil(600 * time.Second)

	for i, c := range d.clients {
		if c.Completed() != c.Total {
			t.Errorf("cluster %d client completed %d/%d after remote view-change", i, c.Completed(), c.Total)
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
	d := deploy(t, 2, 4, 8, detsim.Options{Seed: 23})
	cl := d.clients[0]
	cl.Window, cl.BatchSize = 2, 5
	d.clients[1].Window = 0
	d.net.RunUntil(240 * time.Second)
	if cl.Completed() != cl.Total {
		t.Fatalf("client completed %d/%d with idle remote cluster", cl.Completed(), cl.Total)
	}
	// The idle cluster's slots must be filled with no-ops.
	ref := d.reps[d.topo.ReplicaID(0, 0)]
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
	for id, r := range d.reps {
		if st := r.RoundStats(); st.GracesArmed != 0 {
			t.Errorf("replica %v armed %d no-op graces under one-sided load", id, st.GracesArmed)
		}
	}
}

func TestSafetyAcrossSeedsProperty(t *testing.T) {
	// Across seeds: crash one random backup per cluster mid-run; ledgers of
	// all surviving replicas must agree (non-divergence, Theorem 2.8).
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			d := deploy(t, 2, 4, 6, detsim.Options{Seed: seed * 101})
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
		})
	}
}

func TestLedgerBlocksAlternateClusters(t *testing.T) {
	d := deploy(t, 3, 4, 5, detsim.Options{Seed: 41})
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
