package core

import (
	"testing"

	"resilientdb/internal/config"
	"resilientdb/internal/crypto"
	"resilientdb/internal/pbft"
	"resilientdb/internal/proto"
	"resilientdb/internal/snapshot"
	"resilientdb/internal/types"
)

// TestPreVerifyRoutesBeforeCrypto: genuine material sent by the wrong
// identity is rejected by PreVerify's routing guards without one signature
// check — a client's copy of a catch-up range or of a manifest naming it, and
// a remote view-change request relayed by a replica of another cluster that
// did not sign it. The same material from its proper sender verifies.
func TestPreVerifyRoutesBeforeCrypto(t *testing.T) {
	net := newTestNet(t, 2, 4, Config{})
	a, b := net.client(0), net.client(1)
	for round := uint64(1); round <= 2; round++ {
		net.submit(a, b)
		net.RunFor(0)
		net.assertExecuted(round)
	}
	r := net.reps[net.topo.ReplicaID(0, 0)]
	peer := net.topo.ReplicaID(0, 1)
	client := config.ClientID(0)

	blocks := r.ledger.Export(1, 0)
	tip := r.ledger.Block(r.ledger.Height())
	manifest := func(signer types.NodeID) types.Message {
		m := snapshot.Build(2, 2, tip.Prev, tip.Cert.(*pbft.Certificate), r.clusterHistories(2), r.store.Serialize())
		m.Sign(crypto.NewSuite(crypto.NewDirectory(crypto.Fast, nil), signer, crypto.FreeCosts(), nil))
		return &SnapshotResp{Manifest: m, Round: m.Round, Chunk: -1}
	}
	signer := net.topo.ReplicaID(1, 1)
	rvc := &Rvc{Target: 0, From: 1, Round: 3, Replica: signer}
	rvc.Sig = net.reps[signer].env.Suite().Sign(RvcPayload(rvc))

	rangeMsg := func(types.NodeID) types.Message {
		return &CatchUpResp{Blocks: blocks, Height: r.ledger.Height()}
	}
	rvcMsg := func(types.NodeID) types.Message { return rvc }

	for _, tc := range []struct {
		name    string
		bad, ok types.NodeID                          // wrong and proper sender
		msg     func(from types.NodeID) types.Message // what the sender sends
	}{
		{"catch-up range from a client", client, peer, rangeMsg},
		{"manifest naming a client", client, peer, manifest},
		{"Rvc relayed by an outsider", net.topo.ReplicaID(1, 2), signer, rvcMsg},
	} {
		suite := r.env.Suite()
		_, before := suite.Ops()
		if v := r.PreVerify(suite, tc.bad, tc.msg(tc.bad)); v != proto.VerdictReject {
			t.Errorf("%s: verdict %v, want reject", tc.name, v)
		}
		if _, after := suite.Ops(); after != before {
			t.Errorf("%s: %d verifies before the reject, want 0", tc.name, after-before)
		}
		if v := r.PreVerify(suite, tc.ok, tc.msg(tc.ok)); v != proto.VerdictVerified {
			t.Errorf("%s: from %v the verdict is %v, want verified", tc.name, tc.ok, v)
		}
	}
}
