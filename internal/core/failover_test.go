package core_test

import (
	"testing"
	"time"

	"resilientdb/internal/config"
	"resilientdb/internal/core"
	"resilientdb/internal/detsim"
	"resilientdb/internal/pbft"
	"resilientdb/internal/proto"
	"resilientdb/internal/types"
)

// sendTap is the Env a tapped client sees: it records where each request
// went, by the request's sequence number.
type sendTap struct {
	proto.Env
	sent map[uint64][]types.NodeID
}

func (s *sendTap) Send(to types.NodeID, m types.Message) {
	if req, ok := m.(*pbft.Request); ok {
		s.sent[req.Batch.Seq] = append(s.sent[req.Batch.Seq], to)
	}
	s.Env.Send(to, m)
}

type tappedClient struct {
	*detsim.Client
	tap *sendTap
}

func (c tappedClient) InitEnv(env proto.Env) {
	c.tap.Env = env
	c.Client.InitEnv(c.tap)
}

// TestClientFollowsNewPrimary crashes a cluster's primary under a window-1
// client. The batch in flight at the crash waits for its retry and the view
// change; its replies name the new view. From then on, each batch is sent to
// the new primary alone and completes without a retry.
func TestClientFollowsNewPrimary(t *testing.T) {
	topo := config.NewTopology(1, 4)
	net := detsim.New(detsim.Options{Profile: config.GoogleCloudProfile(1), Seed: 7})
	reps := make(map[types.NodeID]*core.Replica)
	for _, id := range topo.ClusterMembers(0) {
		reps[id] = core.NewReplica(core.Config{
			Topo: topo, Self: id, Records: 1000,
			LocalTimeout: time.Second, RemoteTimeout: 2 * time.Second,
		})
		net.AddNode(id, 0, reps[id])
	}
	var took []time.Duration // by sequence number − 1: window 1 completes in order
	cl := &detsim.Client{
		Group: topo.ClusterMembers(0), Window: 1, BatchSize: 10, Total: 60,
		OnComplete: func(now, submitted time.Duration, _ int) { took = append(took, now-submitted) },
	}
	tap := &sendTap{sent: make(map[uint64][]types.NodeID)}
	net.AddNode(config.ClientID(0), 0, tappedClient{cl, tap})

	for cl.Completed() < 10 {
		net.RunFor(time.Millisecond)
	}
	inFlight := uint64(cl.Completed() + 1)
	net.Crash(topo.ReplicaID(0, 0))
	net.RunUntil(60 * time.Second)
	if cl.Completed() != cl.Total {
		t.Fatalf("client completed %d/%d after the primary crash", cl.Completed(), cl.Total)
	}

	newPrimary := reps[topo.ReplicaID(0, 1)].Local().Primary()
	if newPrimary == topo.ReplicaID(0, 0) {
		t.Fatal("the cluster never left view 0")
	}
	if took[inFlight-1] < proto.ClientRetry {
		t.Errorf("batch %d, in flight at the crash, completed in %v without a retry", inFlight, took[inFlight-1])
	}
	for seq := inFlight + 1; seq <= uint64(cl.Total); seq++ {
		if got := tap.sent[seq]; len(got) != 1 || got[0] != newPrimary {
			t.Errorf("batch %d sent to %v, want only the new primary %v", seq, got, newPrimary)
		}
		if d := took[seq-1]; d >= proto.ClientRetry {
			t.Errorf("batch %d took %v: it waited for a retry", seq, d)
		}
	}
}
