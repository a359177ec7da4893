package fabric_test

import (
	"fmt"
	"testing"
	"time"

	"resilientdb/internal/config"
	"resilientdb/internal/core"
	"resilientdb/internal/fabric"
	"resilientdb/internal/ledger"
	"resilientdb/internal/pbft"
	"resilientdb/internal/snapshot"
	"resilientdb/internal/transport"
	"resilientdb/internal/types"
)

// TestRejectsCountedOnceEitherWay sends one forged or mis-routed message at a
// time to a replica of an idle z=2, n=4 deployment and reads what Stats
// counted: each is one verify reject, and the snapshot material also one
// snapshot reject, whichever of the node's input goroutines runs the
// admission step and whatever its stateful checks on the worker see — the
// checks and their accounting are PreVerify's. Each subtest gives every node
// the named number of cores (-1: the running GOMAXPROCS, which go test -cpu
// sets).
func TestRejectsCountedOnceEitherWay(t *testing.T) {
	for _, workers := range []int{-1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			withInputWorkers(t, 8, workers)
			testRejectsCountedOnce(t)
		})
	}
}

func testRejectsCountedOnce(t *testing.T) {
	topo := config.NewTopology(2, 4)
	tr := transport.NewMem()
	f := fabric.New(fabric.Config{
		Topo:      topo,
		Records:   64,
		Transport: tr,
	})
	defer f.Stop()
	cl := f.NewClient(0)
	defer cl.Close()
	for i := 0; i < 2; i++ {
		if err := cl.Submit([]types.Transaction{{Key: uint64(i), Value: 1}}, 10*time.Second); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	target := topo.ReplicaID(0, 0)
	for deadline := time.Now().Add(10 * time.Second); f.Replica(target).ExecutedRound() < 2; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the target did not execute round 2")
		}
	}
	time.Sleep(100 * time.Millisecond) // the deployment goes quiet

	blocks := f.Replica(target).Ledger().Export(1, 4)
	tampered := *blocks[0]
	cert := *tampered.Cert.(*pbft.Certificate)
	cert.Sigs = append([][]byte{[]byte("garbage")}, cert.Sigs[1:]...)
	tampered.Cert = &cert
	manifest := func(endorser types.NodeID) *core.SnapshotResp {
		tip := blocks[1] // round 1's tip: cluster 1's block
		m := snapshot.Build(1, 2, tip.Prev, tip.Cert.(*pbft.Certificate), make([]types.Digest, 2), []byte("state"))
		m.Replica, m.Sig = endorser, []byte("garbage")
		return &core.SnapshotResp{Manifest: m, Round: m.Round, Chunk: -1}
	}
	b := types.Batch{Client: config.ClientID(1), Seq: 1}
	forgedCert := &pbft.Certificate{Seq: 1000, Digest: b.Digest(), Batch: b,
		Signers: topo.ClusterMembers(1)[:3], Sigs: [][]byte{[]byte("a"), []byte("b"), []byte("c")}}

	remote, peer, client := topo.ReplicaID(1, 1), topo.ReplicaID(0, 1), config.ClientID(1)
	for _, tc := range []struct {
		name     string
		from     types.NodeID
		msg      types.Message
		wantSnap uint64
	}{
		{"forged remote share", remote, &core.GlobalShare{Cluster: 1, Round: 1000, Cert: forgedCert}, 0},
		{"forged Rvc", remote, &core.Rvc{Target: 0, From: 1, Round: 5, Replica: remote, Sig: []byte("garbage")}, 0},
		{"tampered catch-up range", peer, &core.CatchUpResp{Blocks: []*ledger.Block{&tampered, blocks[1]}, Height: 4}, 0},
		{"manifest with a bad signature", peer, manifest(peer), 1},
		{"relayed manifest", peer, manifest(topo.ReplicaID(0, 2)), 1},
		{"catch-up response from a client", client, &core.CatchUpResp{Blocks: blocks, Height: 4}, 0},
	} {
		before := f.Stats()
		tr.Send(tc.from, target, tc.msg)
		counted := func() bool { return f.Stats().VerifyReject > before.VerifyReject }
		deadline := time.Now().Add(2 * time.Second)
		for !counted() && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		time.Sleep(50 * time.Millisecond) // room for a second count
		after := f.Stats()
		rej, snap := after.VerifyReject-before.VerifyReject, after.Snapshots.Rejected-before.Snapshots.Rejected
		if rej != 1 || snap != tc.wantSnap {
			t.Errorf("%s: %d verify rejects, %d snapshot rejects; want 1, %d", tc.name, rej, snap, tc.wantSnap)
		}
	}
}
