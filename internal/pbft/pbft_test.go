package pbft_test

import (
	"testing"
	"time"

	"resilientdb/internal/config"
	"resilientdb/internal/crypto"
	"resilientdb/internal/pbft"
	"resilientdb/internal/proto"
	"resilientdb/internal/simnet"
	"resilientdb/internal/types"
	"resilientdb/internal/ycsb"
)

// testClient drives a PBFT group closed-loop: a window of outstanding
// batches, f+1 matching replies to complete, rebroadcast-to-all on timeout
// (the standard PBFT client liveness mechanism).
type testClient struct {
	members   []types.NodeID
	primary   types.NodeID
	f         int
	batchSize int
	total     int
	window    int

	env       *simnet.Env
	wl        *ycsb.Workload
	nextSeq   uint64
	acks      map[uint64]map[types.NodeID]bool
	done      map[uint64]bool
	batches   map[uint64]types.Batch
	completed int
}

func (c *testClient) Init(env *simnet.Env) {
	c.env = env
	c.wl = ycsb.NewWorkload(10_000, ycsb.DefaultTheta, int64(env.ID()))
	c.acks = make(map[uint64]map[types.NodeID]bool)
	c.done = make(map[uint64]bool)
	c.batches = make(map[uint64]types.Batch)
	for i := 0; i < c.window && int(c.nextSeq) < c.total; i++ {
		c.submit()
	}
}

func (c *testClient) submit() {
	c.nextSeq++
	seq := c.nextSeq
	b := c.wl.MakeBatch(c.env.ID(), seq, c.batchSize)
	c.batches[seq] = b
	c.env.Send(c.primary, &pbft.Request{Batch: b, Sig: c.env.Suite().Sign(pbft.RequestPayload(&b))})
	c.armRetry(seq)
}

func (c *testClient) armRetry(seq uint64) {
	c.env.SetTimer(3*time.Second, func() {
		if c.done[seq] {
			return
		}
		b := c.batches[seq]
		for _, m := range c.members {
			c.env.Send(m, &pbft.Request{Batch: b})
		}
		c.armRetry(seq)
	})
}

func (c *testClient) Receive(from types.NodeID, msg types.Message) {
	rep, ok := msg.(*proto.Reply)
	if !ok || c.done[rep.ClientSeq] {
		return
	}
	set := c.acks[rep.ClientSeq]
	if set == nil {
		set = make(map[types.NodeID]bool)
		c.acks[rep.ClientSeq] = set
	}
	set[from] = true
	if len(set) >= c.f+1 {
		c.done[rep.ClientSeq] = true
		delete(c.batches, rep.ClientSeq)
		c.completed++
		if int(c.nextSeq) < c.total {
			c.submit()
		}
	}
}

// cluster builds n standalone PBFT replicas plus one client in a single
// region and returns the network and parts.
func cluster(t *testing.T, n int, opts simnet.Options) (*simnet.Network, []*pbft.Standalone, *testClient) {
	t.Helper()
	if opts.Profile == nil {
		opts.Profile = config.UniformProfile(1, 0, 1000)
	}
	if opts.Seed == 0 {
		opts.Seed = 7
	}
	net := simnet.New(opts)
	members := make([]types.NodeID, n)
	for i := range members {
		members[i] = types.NodeID(i)
	}
	f := (n - 1) / 3
	reps := make([]*pbft.Standalone, n)
	for i := 0; i < n; i++ {
		reps[i] = pbft.NewStandalone(pbft.Config{
			Members: members, Self: members[i], F: f,
			CheckpointInterval: 4, ViewChangeTimeout: time.Second,
		}, 1000)
		net.AddNode(members[i], 0, reps[i])
	}
	client := &testClient{
		members: members, primary: members[0], f: f,
		batchSize: 10, total: 30, window: 4,
	}
	net.AddNode(config.ClientID(0), 0, client)
	return net, reps, client
}

func assertConvergence(t *testing.T, reps []*pbft.Standalone, skip map[int]bool, wantBatches int) {
	t.Helper()
	var ref *pbft.Standalone
	for i, r := range reps {
		if skip[i] {
			continue
		}
		if ref == nil {
			ref = r
			continue
		}
		if r.Ledger().Height() != ref.Ledger().Height() {
			t.Errorf("replica %d ledger height %d != %d", i, r.Ledger().Height(), ref.Ledger().Height())
		}
		if r.Ledger().Head() != ref.Ledger().Head() {
			t.Errorf("replica %d ledger head differs", i)
		}
		if r.Store().Digest() != ref.Store().Digest() {
			t.Errorf("replica %d store digest differs", i)
		}
		if err := r.Ledger().Verify(); err != nil {
			t.Errorf("replica %d ledger verify: %v", i, err)
		}
	}
	if ref != nil && wantBatches > 0 && ref.Core().CommittedUpTo() < uint64(wantBatches) {
		t.Errorf("committed %d sequences, want ≥ %d", ref.Core().CommittedUpTo(), wantBatches)
	}
}

func TestNormalCaseFourReplicas(t *testing.T) {
	net, reps, client := cluster(t, 4, simnet.Options{})
	net.RunUntil(60 * time.Second)
	if client.completed != client.total {
		t.Fatalf("client completed %d/%d batches", client.completed, client.total)
	}
	assertConvergence(t, reps, nil, client.total)
}

func TestNormalCaseSevenReplicas(t *testing.T) {
	net, reps, client := cluster(t, 7, simnet.Options{Seed: 11})
	net.RunUntil(60 * time.Second)
	if client.completed != client.total {
		t.Fatalf("client completed %d/%d batches", client.completed, client.total)
	}
	assertConvergence(t, reps, nil, client.total)
}

func TestRealCryptoNormalCase(t *testing.T) {
	net, reps, client := cluster(t, 4, simnet.Options{Mode: crypto.Real})
	net.RunUntil(60 * time.Second)
	if client.completed != client.total {
		t.Fatalf("client completed %d/%d batches", client.completed, client.total)
	}
	assertConvergence(t, reps, nil, client.total)
}

func TestBackupFailureDoesNotStall(t *testing.T) {
	net, reps, client := cluster(t, 4, simnet.Options{})
	net.At(0, 3, func() {}) // ensure node known
	net.Crash(3)
	net.RunUntil(60 * time.Second)
	if client.completed != client.total {
		t.Fatalf("client completed %d/%d with one backup down", client.completed, client.total)
	}
	assertConvergence(t, reps, map[int]bool{3: true}, client.total)
}

func TestPrimaryFailureTriggersViewChange(t *testing.T) {
	net, reps, client := cluster(t, 4, simnet.Options{})
	// Let a few batches commit, then kill the primary mid-run (client work
	// outstanding forces the backups to depose it).
	net.RunUntil(5 * time.Millisecond)
	if client.completed == client.total {
		t.Fatal("test setup: workload finished before the crash point")
	}
	net.Crash(0)
	net.RunUntil(240 * time.Second)
	if client.completed != client.total {
		t.Fatalf("client completed %d/%d after primary failure", client.completed, client.total)
	}
	for i := 1; i < 4; i++ {
		if reps[i].Core().View() == 0 {
			t.Errorf("replica %d still in view 0", i)
		}
		if got := reps[i].Core().Primary(); got == 0 {
			t.Errorf("replica %d still believes r0 is primary", i)
		}
	}
	assertConvergence(t, reps, map[int]bool{0: true}, client.total)
}

func TestCheckpointsAdvanceStableSeq(t *testing.T) {
	net, reps, client := cluster(t, 4, simnet.Options{})
	net.RunUntil(60 * time.Second)
	if client.completed != client.total {
		t.Fatalf("completed %d/%d", client.completed, client.total)
	}
	for i, r := range reps {
		if r.Core().StableSeq() == 0 {
			t.Errorf("replica %d never stabilized a checkpoint", i)
		}
		if r.Core().StableSeq()%4 != 0 {
			t.Errorf("replica %d stable seq %d not a checkpoint multiple", i, r.Core().StableSeq())
		}
	}
}

// byzantinePrimary equivocates: it proposes different batches for the same
// sequence number to the two halves of the cluster.
type byzantinePrimary struct {
	members []types.NodeID
	env     *simnet.Env
}

func (b *byzantinePrimary) Init(env *simnet.Env) {
	b.env = env
	env.SetTimer(100*time.Millisecond, func() {
		batchA := types.Batch{Client: config.ClientID(0), Seq: 1,
			Txns: []types.Transaction{{Key: 1, Value: 100}}}
		batchB := types.Batch{Client: config.ClientID(0), Seq: 1,
			Txns: []types.Transaction{{Key: 1, Value: 999}}}
		for i, m := range b.members {
			if m == env.ID() {
				continue
			}
			pp := &pbft.PrePrepare{View: 0, Seq: 1}
			if i%2 == 0 {
				pp.Batch, pp.Digest = batchA, batchA.Digest()
			} else {
				pp.Batch, pp.Digest = batchB, batchB.Digest()
			}
			env.Send(m, pp)
		}
	})
}

func (b *byzantinePrimary) Receive(from types.NodeID, msg types.Message) {}

func TestEquivocatingPrimaryCannotCauseDivergence(t *testing.T) {
	opts := simnet.Options{Profile: config.UniformProfile(1, 0, 1000), Seed: 3, Mode: crypto.Real}
	net := simnet.New(opts)
	n := 4
	members := make([]types.NodeID, n)
	for i := range members {
		members[i] = types.NodeID(i)
	}
	byz := &byzantinePrimary{members: members}
	net.AddNode(members[0], 0, byz)
	reps := make([]*pbft.Standalone, n)
	for i := 1; i < n; i++ {
		reps[i] = pbft.NewStandalone(pbft.Config{
			Members: members, Self: members[i], F: 1,
			ViewChangeTimeout: time.Second,
		}, 100)
		net.AddNode(members[i], 0, reps[i])
	}
	client := &testClient{members: members, primary: members[0], f: 1,
		batchSize: 5, total: 5, window: 2}
	net.AddNode(config.ClientID(0), 0, client)

	net.RunUntil(120 * time.Second)

	// Safety: no two honest replicas executed different batches at the same
	// height.
	for i := 1; i < n; i++ {
		for j := i + 1; j < n; j++ {
			hi, hj := reps[i].Ledger(), reps[j].Ledger()
			minH := hi.Height()
			if hj.Height() < minH {
				minH = hj.Height()
			}
			for h := uint64(1); h <= minH; h++ {
				if hi.Block(h).Hash != hj.Block(h).Hash {
					t.Fatalf("divergence at height %d between r%d and r%d", h, i, j)
				}
			}
		}
	}
	// Liveness: the equivocator was deposed and client work completed.
	if client.completed != client.total {
		t.Errorf("client completed %d/%d under equivocating primary", client.completed, client.total)
	}
	for i := 1; i < n; i++ {
		if reps[i].Core().View() == 0 {
			t.Errorf("replica %d never left the equivocator's view", i)
		}
	}
}

// Property: across seeds and cluster sizes, PBFT preserves ledger prefix
// agreement with a random backup crashed mid-run.
func TestSafetyAcrossSeedsProperty(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		n := 4 + int(seed%2)*3 // 4 or 7
		opts := simnet.Options{Profile: config.UniformProfile(1, 0, 1000), Seed: seed}
		net, reps, client := clusterN(t, n, opts)
		crash := 1 + int(seed)%(n-1)
		net.At(time.Duration(seed)*300*time.Millisecond, types.NodeID(crash), func() {})
		net.RunUntil(time.Duration(seed) * 300 * time.Millisecond)
		net.Crash(types.NodeID(crash))
		net.RunUntil(120 * time.Second)
		if client.completed != client.total {
			t.Errorf("seed %d: completed %d/%d", seed, client.completed, client.total)
		}
		assertConvergence(t, reps, map[int]bool{crash: true}, 0)
	}
}

func clusterN(t *testing.T, n int, opts simnet.Options) (*simnet.Network, []*pbft.Standalone, *testClient) {
	t.Helper()
	return cluster2(t, n, opts)
}

func cluster2(t *testing.T, n int, opts simnet.Options) (*simnet.Network, []*pbft.Standalone, *testClient) {
	t.Helper()
	net := simnet.New(opts)
	members := make([]types.NodeID, n)
	for i := range members {
		members[i] = types.NodeID(i)
	}
	f := (n - 1) / 3
	reps := make([]*pbft.Standalone, n)
	for i := 0; i < n; i++ {
		reps[i] = pbft.NewStandalone(pbft.Config{
			Members: members, Self: members[i], F: f,
			CheckpointInterval: 4, ViewChangeTimeout: time.Second,
		}, 1000)
		net.AddNode(members[i], 0, reps[i])
	}
	client := &testClient{
		members: members, primary: members[0], f: f,
		batchSize: 10, total: 20, window: 4,
	}
	net.AddNode(config.ClientID(0), 0, client)
	return net, reps, client
}

func TestGeoDistributedPBFT(t *testing.T) {
	// PBFT over four regions: latency dominated by WAN round trips but the
	// protocol still converges.
	prof := config.GoogleCloudProfile(4)
	net := simnet.New(simnet.Options{Profile: prof, Seed: 9})
	n := 8
	members := make([]types.NodeID, n)
	for i := range members {
		members[i] = types.NodeID(i)
	}
	reps := make([]*pbft.Standalone, n)
	for i := 0; i < n; i++ {
		reps[i] = pbft.NewStandalone(pbft.Config{
			Members: members, Self: members[i], F: 2,
			ViewChangeTimeout: 5 * time.Second,
		}, 1000)
		net.AddNode(members[i], i%4, reps[i])
	}
	client := &testClient{members: members, primary: members[0], f: 2,
		batchSize: 10, total: 10, window: 2}
	net.AddNode(config.ClientID(0), 0, client)
	net.RunUntil(120 * time.Second)
	if client.completed != client.total {
		t.Fatalf("completed %d/%d across regions", client.completed, client.total)
	}
	assertConvergence(t, reps, nil, client.total)
}
