// Package pbft implements the Practical Byzantine Fault Tolerance protocol
// of Castro and Liskov, in the configuration the ResilientDB paper uses
// (Section 2.2): a three-phase primary-backup commit protocol where only
// client requests and commit messages carry digital signatures (they are
// forwarded), all other messages are authenticated with MACs, plus
// checkpoints and view-changes for liveness under a faulty primary.
//
// The package serves two roles: it is the standalone PBFT baseline of the
// paper's evaluation, and it is the local-replication module inside each
// GeoBFT cluster (package core). The replica is a deterministic state
// machine driven through a proto.Env, so the same code runs in the
// discrete-event simulator and in the real-time fabric.
package pbft

import (
	"resilientdb/internal/types"
)

// Request carries a client batch to the primary, authenticated by the
// submitting client.
type Request struct {
	Batch types.Batch
	// Sig is the client's signature over RequestPayload(&Batch). The fabric
	// verifies it before admission; a backup forwarding the request carries
	// it along so the primary can re-verify without trusting the forwarder.
	// The simulator leaves it empty and models verification as CPU cost.
	Sig []byte
	// Forwarded marks backup→primary forwarding of a client request.
	Forwarded bool
}

func (*Request) MsgType() string { return "pbft/request" }

// WireSize implements types.Message.
func (r *Request) WireSize() int {
	n := r.Batch.WireSize()
	if len(r.Sig) > 0 {
		n += types.SigBytes
	}
	return n
}

// PrePrepare is the primary's proposal assigning sequence seq in view to the
// batch.
type PrePrepare struct {
	View   uint64
	Seq    uint64
	Digest types.Digest
	Batch  types.Batch
}

func (*PrePrepare) MsgType() string { return "pbft/preprepare" }

// WireSize implements types.Message (5.4 kB at batch 100).
func (p *PrePrepare) WireSize() int { return types.HeaderBytes + p.Batch.WireSize() }

// Prepare is a backup's first-phase echo of a proposal. It is counted on the
// authentication of the channel it arrives on (as in the paper's
// configuration); its signature is retained and verified only by the replica
// that shows a prepare set as a prepared-certificate inside a view-change.
type Prepare struct {
	View    uint64
	Seq     uint64
	Digest  types.Digest
	Replica types.NodeID
	Sig     []byte
}

func (*Prepare) MsgType() string { return "pbft/prepare" }

// WireSize implements types.Message.
func (*Prepare) WireSize() int { return types.ControlBytes }

// Commit is the second-phase vote. Commits are digitally signed: n−f of
// them form the commit certificate that GeoBFT forwards across clusters.
// A receiver counts the vote on channel authentication and retains the
// signature; it is verified where a certificate built from it is shown
// (Replica.Prove) and by whoever that certificate is shown to
// (Certificate.Verify).
type Commit struct {
	View    uint64
	Seq     uint64
	Digest  types.Digest
	Replica types.NodeID
	Sig     []byte
}

func (*Commit) MsgType() string { return "pbft/commit" }

// WireSize implements types.Message.
func (*Commit) WireSize() int { return types.ControlBytes }

// Checkpoint announces the replica's history digest at a checkpoint
// sequence. Signed, so checkpoint quorums can prove stability inside
// view-changes; counted on channel authentication, the signature verified by
// the replica that shows the quorum there.
type Checkpoint struct {
	Seq     uint64
	Digest  types.Digest
	Replica types.NodeID
	Sig     []byte
}

func (*Checkpoint) MsgType() string { return "pbft/checkpoint" }

// WireSize implements types.Message.
func (*Checkpoint) WireSize() int { return types.ControlBytes }

// PreparedProof shows that a batch was prepared (or committed) at some
// sequence by this replica, for inclusion in a ViewChange.
type PreparedProof struct {
	View   uint64
	Seq    uint64
	Digest types.Digest
	Batch  types.Batch
	// PrepareSigs holds ≥ n−f prepare signatures (signers aligned with
	// PrepareSigners) proving preparedness.
	PrepareSigners []types.NodeID
	PrepareSigs    [][]byte
	// Cert, if non-nil, is a full commit certificate (stronger than
	// prepared; cannot be forged).
	Cert *Certificate
}

// ViewChange requests moving to NewView and carries the replica's protocol
// state: its latest stable checkpoint (with proof) and every prepared
// proposal above it.
type ViewChange struct {
	NewView     uint64
	Replica     types.NodeID
	StableSeq   uint64
	StableProof []*Checkpoint
	Prepared    []*PreparedProof
	Sig         []byte
}

func (*ViewChange) MsgType() string { return "pbft/viewchange" }

// WireSize implements types.Message.
func (v *ViewChange) WireSize() int {
	size := types.ControlBytes + len(v.StableProof)*types.SigBytes
	for _, p := range v.Prepared {
		size += p.Batch.WireSize() + len(p.PrepareSigs)*types.SigBytes
		if p.Cert != nil {
			size += p.Cert.WireSize()
		}
	}
	return size
}

// NewView is the new primary's installation message: the view-change quorum
// justifying the view plus the re-issued proposals.
type NewView struct {
	View        uint64
	ViewChanges []*ViewChange
	PrePrepares []*PrePrepare
}

func (*NewView) MsgType() string { return "pbft/newview" }

// WireSize implements types.Message.
func (n *NewView) WireSize() int {
	size := types.ControlBytes
	for _, v := range n.ViewChanges {
		size += v.WireSize()
	}
	for _, p := range n.PrePrepares {
		size += p.WireSize()
	}
	return size
}

// CatchupRequest asks a peer for commit certificates from FromSeq onward, so
// a lagging replica can rejoin without waiting for retransmissions.
type CatchupRequest struct {
	FromSeq uint64
}

func (*CatchupRequest) MsgType() string { return "pbft/catchup-req" }

// WireSize implements types.Message.
func (*CatchupRequest) WireSize() int { return types.ControlBytes }

// CatchupReply returns a bounded run of certificates.
type CatchupReply struct {
	Certs []*Certificate
}

func (*CatchupReply) MsgType() string { return "pbft/catchup-reply" }

// WireSize implements types.Message.
func (c *CatchupReply) WireSize() int {
	size := types.HeaderBytes
	for _, cert := range c.Certs {
		size += cert.WireSize()
	}
	return size
}

// Signing payloads. Each is a canonical encoding with a distinct tag so
// signatures can never be confused across message kinds.

// PreparePayload is the canonical signed content of a Prepare message. It is
// exported as an attack seam: the byzantine adversary harness
// (internal/byzantine) constructs protocol-shaped votes signed with the
// compromised replica's own key; the honest path is unchanged, and no seam
// here lets anyone forge another replica's signature.
func PreparePayload(view, seq uint64, digest types.Digest) []byte {
	enc := types.NewEncoder(64)
	enc.String("pbft/PR")
	enc.U64(view)
	enc.U64(seq)
	enc.Digest(digest)
	return enc.Bytes()
}

// CommitPayload is the canonical signed content of a Commit message. It is
// exported because GeoBFT verifies forwarded commit certificates.
func CommitPayload(view, seq uint64, digest types.Digest) []byte {
	enc := types.NewEncoder(64)
	enc.String("pbft/CM")
	enc.U64(view)
	enc.U64(seq)
	enc.Digest(digest)
	return enc.Bytes()
}

func checkpointPayload(seq uint64, digest types.Digest) []byte {
	enc := types.NewEncoder(64)
	enc.String("pbft/CP")
	enc.U64(seq)
	enc.Digest(digest)
	return enc.Bytes()
}

// ViewChangePayload is the canonical signed content of a ViewChange message.
// Exported as an attack seam like PreparePayload: the adversary harness signs
// spam campaigns with its own key to probe the view-change spam defenses.
func ViewChangePayload(v *ViewChange) []byte {
	enc := types.NewEncoder(256)
	enc.String("pbft/VC")
	enc.U64(v.NewView)
	enc.I32(int32(v.Replica))
	enc.U64(v.StableSeq)
	enc.U32(uint32(len(v.Prepared)))
	for _, p := range v.Prepared {
		enc.U64(p.View)
		enc.U64(p.Seq)
		enc.Digest(p.Digest)
	}
	return enc.Bytes()
}

// RequestPayload is the canonical signed content of a client request.
func RequestPayload(b *types.Batch) []byte {
	enc := types.NewEncoder(64)
	enc.String("pbft/RQ")
	d := b.Digest()
	enc.Digest(d)
	return enc.Bytes()
}
