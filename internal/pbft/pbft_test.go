package pbft_test

import (
	"fmt"
	"testing"
	"time"

	"resilientdb/internal/config"
	"resilientdb/internal/crypto"
	"resilientdb/internal/detsim"
	"resilientdb/internal/pbft"
	"resilientdb/internal/proto"
	"resilientdb/internal/types"
)

// deploy builds n standalone PBFT replicas on the deterministic simulator —
// replica i in region i mod the profile's regions, member 0 the primary — and
// one closed-loop client in region 0. cfg supplies the timeouts and the
// checkpoint interval (Members, Self and F are filled in); load supplies the
// client's window, batch size and total (its Group is filled in). A nil
// opts.Profile selects one region of 1 Gbit/s links, seed 0 selects 7. A
// non-nil primary takes member 0's place, and reps[0] stays nil.
func deploy(t *testing.T, n int, opts detsim.Options, cfg pbft.Config, load detsim.Client, primary detsim.Handler) (*detsim.Network, []*pbft.Standalone, *detsim.Client) {
	t.Helper()
	if opts.Profile == nil {
		opts.Profile = config.UniformProfile(1, 0, 1000)
	}
	if opts.Seed == 0 {
		opts.Seed = 7
	}
	net := detsim.New(opts)
	members := make([]types.NodeID, n)
	for i := range members {
		members[i] = types.NodeID(i)
	}
	cfg.Members, cfg.F = members, (n-1)/3
	reps := make([]*pbft.Standalone, n)
	for i, id := range members {
		region := i % len(opts.Profile.Names)
		if i == 0 && primary != nil {
			net.AddNode(id, region, primary)
			continue
		}
		cfg.Self = id
		reps[i] = pbft.NewStandalone(cfg, 1000)
		net.AddNode(id, region, reps[i])
	}
	client := &load
	client.Group = members
	net.AddNode(config.ClientID(0), 0, client)
	return net, reps, client
}

// local is the replica configuration of the single-region tests.
var local = pbft.Config{CheckpointInterval: 4, ViewChangeTimeout: time.Second}

// load is the single-region tests' client: four batches of ten outstanding.
func load(total int) detsim.Client {
	return detsim.Client{Window: 4, BatchSize: 10, Total: total}
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
	net, reps, client := deploy(t, 4, detsim.Options{}, local, load(30), nil)
	net.RunUntil(60 * time.Second)
	if client.Completed() != client.Total {
		t.Fatalf("client completed %d/%d batches", client.Completed(), client.Total)
	}
	assertConvergence(t, reps, nil, client.Total)
}

func TestNormalCaseSevenReplicas(t *testing.T) {
	net, reps, client := deploy(t, 7, detsim.Options{Seed: 11}, local, load(30), nil)
	net.RunUntil(60 * time.Second)
	if client.Completed() != client.Total {
		t.Fatalf("client completed %d/%d batches", client.Completed(), client.Total)
	}
	assertConvergence(t, reps, nil, client.Total)
}

func TestRealCryptoNormalCase(t *testing.T) {
	net, reps, client := deploy(t, 4, detsim.Options{Mode: crypto.Real}, local, load(30), nil)
	net.RunUntil(60 * time.Second)
	if client.Completed() != client.Total {
		t.Fatalf("client completed %d/%d batches", client.Completed(), client.Total)
	}
	assertConvergence(t, reps, nil, client.Total)
}

func TestBackupFailureDoesNotStall(t *testing.T) {
	net, reps, client := deploy(t, 4, detsim.Options{}, local, load(30), nil)
	net.Crash(3)
	net.RunUntil(60 * time.Second)
	if client.Completed() != client.Total {
		t.Fatalf("client completed %d/%d with one backup down", client.Completed(), client.Total)
	}
	assertConvergence(t, reps, map[int]bool{3: true}, client.Total)
}

func TestPrimaryFailureTriggersViewChange(t *testing.T) {
	net, reps, client := deploy(t, 4, detsim.Options{}, local, load(30), nil)
	// Let a few batches commit, then kill the primary mid-run (client work
	// outstanding forces the backups to depose it).
	net.RunUntil(5 * time.Millisecond)
	if client.Completed() == client.Total {
		t.Fatal("test setup: workload finished before the crash point")
	}
	net.Crash(0)
	net.RunUntil(240 * time.Second)
	if client.Completed() != client.Total {
		t.Fatalf("client completed %d/%d after primary failure", client.Completed(), client.Total)
	}
	for i := 1; i < 4; i++ {
		if reps[i].Core().View() == 0 {
			t.Errorf("replica %d still in view 0", i)
		}
		if got := reps[i].Core().Primary(); got == 0 {
			t.Errorf("replica %d still believes r0 is primary", i)
		}
	}
	assertConvergence(t, reps, map[int]bool{0: true}, client.Total)
}

func TestCheckpointsAdvanceStableSeq(t *testing.T) {
	net, reps, client := deploy(t, 4, detsim.Options{}, local, load(30), nil)
	net.RunUntil(60 * time.Second)
	if client.Completed() != client.Total {
		t.Fatalf("completed %d/%d", client.Completed(), client.Total)
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
}

func (b *byzantinePrimary) InitEnv(env proto.Env) {
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
	n := 4
	members := []types.NodeID{0, 1, 2, 3}
	net, reps, client := deploy(t, n, detsim.Options{Seed: 3, Mode: crypto.Real}, pbft.Config{ViewChangeTimeout: time.Second},
		detsim.Client{Window: 2, BatchSize: 5, Total: 5}, &byzantinePrimary{members: members})
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
	if client.Completed() != client.Total {
		t.Errorf("client completed %d/%d under equivocating primary", client.Completed(), client.Total)
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
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			n := 4 + int(seed%2)*3 // 4 or 7
			net, reps, client := deploy(t, n, detsim.Options{Seed: seed}, local, load(20), nil)
			crash := 1 + int(seed)%(n-1)
			net.RunUntil(time.Duration(seed) * 300 * time.Millisecond)
			net.Crash(types.NodeID(crash))
			net.RunUntil(120 * time.Second)
			if client.Completed() != client.Total {
				t.Errorf("seed %d: completed %d/%d", seed, client.Completed(), client.Total)
			}
			assertConvergence(t, reps, map[int]bool{crash: true}, 0)
		})
	}
}

func TestGeoDistributedPBFT(t *testing.T) {
	// PBFT over four regions: latency dominated by WAN round trips but the
	// protocol still converges.
	net, reps, client := deploy(t, 8, detsim.Options{Profile: config.GoogleCloudProfile(4), Seed: 9},
		pbft.Config{ViewChangeTimeout: 5 * time.Second}, detsim.Client{Window: 2, BatchSize: 10, Total: 10}, nil)
	net.RunUntil(120 * time.Second)
	if client.Completed() != client.Total {
		t.Fatalf("completed %d/%d across regions", client.Completed(), client.Total)
	}
	assertConvergence(t, reps, nil, client.Total)
}
