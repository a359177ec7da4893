package byzantine

import (
	"resilientdb/internal/config"
	"resilientdb/internal/core"
	"resilientdb/internal/crypto"
	"resilientdb/internal/ledger"
	"resilientdb/internal/pbft"
	"resilientdb/internal/types"
)

// CorpusMessages returns the adversary-generated malformed protocol messages
// committed as seeds for the wire-decode fuzz corpus
// (internal/types/testdata/fuzz/FuzzDecodeMessage): forged certificate
// shares in every ShareForger variant, tampered and fabricated catch-up
// responses in every CatchupTamperer variant, and the view-change spammer's
// wire-borne forgeries. Every message is semantically hostile but must
// encode, decode and re-verify without a panic — exactly what the fuzz
// target asserts. The set is deterministic, so the committed corpus files
// can be regenerated byte-for-byte.
func CorpusMessages() []types.Message {
	topo := config.NewTopology(2, 4)
	fleet := NewFleet(1)
	adv := fleet.Adversary(topo, crypto.Fast, topo.ReplicaID(0, 1), &Suppressor{})

	// A plausible certified chain to forge against.
	src := ledger.New()
	for r := uint64(1); r <= 2; r++ {
		for c := 0; c < topo.Clusters; c++ {
			b := types.Batch{Client: types.ClientIDBase, Seq: r,
				Txns: []types.Transaction{{Key: uint64(c), Value: r}}}
			cert := &pbft.Certificate{View: 0, Seq: r, Digest: b.Digest(), Batch: b,
				Signers: topo.ClusterMembers(c)[:3],
				Sigs:    [][]byte{{1}, {2}, {3}}}
			src.AppendCertified(r, types.ClusterID(c), b, cert)
		}
	}
	blocks := src.Export(1, 0)

	var out []types.Message
	gs := &core.GlobalShare{Cluster: blocks[2].Cluster, Round: blocks[2].Round,
		Cert: blocks[2].Cert.(*pbft.Certificate)}
	for n := 0; n < 5; n++ {
		out = append(out, forgeShare(gs, n))
	}
	resp := &core.CatchUpResp{Blocks: blocks, Height: src.Height()}
	for n := 0; n < 4; n++ {
		out = append(out, tamperResp(resp, n))
	}
	out = append(out, forgedResp(adv))

	// The spammer's wire-borne forgeries.
	far := &pbft.ViewChange{NewView: 1 << 20, Replica: adv.ID()}
	far.Sig = adv.Suite().Sign(pbft.ViewChangePayload(far))
	forgedVC := &pbft.ViewChange{NewView: 3, Replica: adv.ID(), Sig: []byte("forged")}
	forgedRvc := &core.Rvc{Target: 1, From: 0, Round: 1, V: 0, Replica: adv.ID(), Sig: []byte("forged")}
	staleRvc := &core.Rvc{Target: 1, From: 0, Round: 1, V: 0, Replica: adv.ID()}
	staleRvc.Sig = adv.Suite().Sign(core.RvcPayload(staleRvc))
	out = append(out, far, forgedVC, forgedRvc, staleRvc)

	// The rogue client's wire-borne attacks on the admission boundary: a
	// validly signed request (what Precheck and PreVerify decode), a
	// forged-signature copy, and an equivocating payload for the same
	// (client, seq) — signed single-transaction batches, the shapes
	// RogueClient floods.
	cid := config.ClientID(0)
	csuite := crypto.NewSuite(crypto.NewDirectory(crypto.Fast, []types.NodeID{cid}), cid, crypto.FreeCosts(), nil)
	rb := types.Batch{Client: cid, Seq: 7, Txns: []types.Transaction{{Key: 7, Value: 7}}}
	rb.PrimeDigest()
	eb := types.Batch{Client: cid, Seq: 7, Txns: []types.Transaction{{Key: 7, Value: 8}}}
	eb.PrimeDigest()
	out = append(out,
		&pbft.Request{Batch: rb, Sig: csuite.Sign(pbft.RequestPayload(&rb))},
		&pbft.Request{Batch: rb, Sig: []byte("forged")},
		&pbft.Request{Batch: eb, Sig: csuite.Sign(pbft.RequestPayload(&eb))})

	// The vote forger's wire-borne votes: valid routing, garbage signature
	// (appended last so the seeds above keep their file names).
	d := blocks[0].BatchDigest
	out = append(out,
		forgeVote(&pbft.Prepare{View: 0, Seq: 1, Digest: d, Replica: adv.ID(), Sig: adv.Suite().Sign(pbft.PreparePayload(0, 1, d))}),
		forgeVote(&pbft.Commit{View: 0, Seq: 1, Digest: d, Replica: adv.ID(), Sig: adv.Suite().Sign(pbft.CommitPayload(0, 1, d))}),
		forgeVote(&pbft.Checkpoint{Seq: 6, Digest: d, Replica: adv.ID(), Sig: []byte{}}))
	return out
}
