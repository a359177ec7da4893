package pbft

import (
	"resilientdb/internal/crypto"
	"resilientdb/internal/types"
)

// Certificate is a commit certificate: the proof that a batch was committed
// at a sequence number by a cluster (paper Section 2.2). It consists of the
// client request and n−f commit signatures from distinct replicas. GeoBFT
// forwards certificates across clusters; any replica can verify one without
// trusting the forwarder (Proposition 2.5, "Agreement").
type Certificate struct {
	View    uint64
	Seq     uint64
	Digest  types.Digest
	Batch   types.Batch
	Signers []types.NodeID
	Sigs    [][]byte
}

// MsgType implements types.Message (certificates travel inside GlobalShare
// and catchup messages, but are also measurable on their own).
func (*Certificate) MsgType() string { return "pbft/certificate" }

// WireSize implements types.Message: the 6.4 kB the paper reports at batch
// 100 is the embedded preprepare (5.4 kB) plus one signature entry per
// commit message.
func (c *Certificate) WireSize() int {
	return types.HeaderBytes + c.Batch.WireSize() + len(c.Sigs)*types.SigBytes
}

// Verify checks that the certificate carries at least quorum valid commit
// signatures from distinct members over (view, seq, batch digest) and that
// the digest matches the embedded batch. The caller supplies the cluster
// membership the certificate must draw signers from.
func (c *Certificate) Verify(suite *crypto.Suite, members []types.NodeID, quorum int) bool {
	if len(c.Signers) != len(c.Sigs) || len(c.Signers) < quorum {
		return false
	}
	if c.Batch.Digest() != c.Digest {
		return false
	}
	member := make(map[types.NodeID]bool, len(members))
	for _, m := range members {
		member[m] = true
	}
	payload := CommitPayload(c.View, c.Seq, c.Digest)
	seen := make(map[types.NodeID]bool, len(c.Signers))
	valid := 0
	for i, signer := range c.Signers {
		if !member[signer] || seen[signer] {
			return false
		}
		seen[signer] = true
		if !suite.Verify(signer, payload, c.Sigs[i]) {
			return false
		}
		valid++
	}
	return valid >= quorum
}

// CertDigest returns a digest committing to the certificate (used by ledger
// blocks and by core.ShareKey, on which forwarded copies of a share are
// matched). It must not assume the certificate is well-formed: wire-decoded
// certificates can carry mismatched signer/signature counts (they fail
// Verify, but CertDigest may run first — a forwarded copy is keyed before
// anyone verifies it), so a missing signature hashes as empty instead of
// panicking. It hashes one signature per signer: it commits to every byte of a
// certificate whose two lists are equally long, and not to signatures beyond
// the last signer — which is why core.ShareKey keys no certificate that has
// any.
func (c *Certificate) CertDigest() types.Digest {
	enc := types.NewEncoder(128 + 16*len(c.Signers))
	enc.String("pbft/CERT")
	enc.U64(c.View)
	enc.U64(c.Seq)
	enc.Digest(c.Digest)
	for i, s := range c.Signers {
		enc.I32(int32(s))
		if i < len(c.Sigs) {
			enc.BytesN(c.Sigs[i])
		} else {
			enc.BytesN(nil)
		}
	}
	return types.Hash(enc.Bytes())
}
