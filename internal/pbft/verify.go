package pbft

import (
	"resilientdb/internal/crypto"
	"resilientdb/internal/proto"
	"resilientdb/internal/types"
)

// PreVerify performs the state-independent checks of a PBFT message: the
// batch/digest binding of a preprepare and of every proposal a new-view
// carries, and the rule that a prepare or commit vote names its sender and
// carries a signature to retain. It touches no replica state, so the fabric's
// input goroutines call it concurrently (suite must honor crypto.Suite's
// concurrency contract). It is the only place these checks
// run: HandleMessage runs it inline, and HandleVerified assumes it passed.
//
// No vote signature is checked on receipt: prepare, commit and checkpoint
// votes are counted on their channel's authentication and their signatures
// verified only where a proof built from them is shown (Replica.Prove,
// buildViewChange). View-change and new-view signatures verify on the worker
// (rare path, and their validation is entangled with quorum state).
func PreVerify(suite *crypto.Suite, from types.NodeID, msg types.Message) proto.Verdict {
	switch m := msg.(type) {
	case *PrePrepare:
		if m.Batch.Digest() != m.Digest {
			return proto.VerdictReject
		}
		return proto.VerdictVerified
	case *NewView:
		// The re-issued proposals carry batches the new primary supplied;
		// onNewView matches their digests against the campaigns.
		for _, pp := range m.PrePrepares {
			if pp.Batch.Digest() != pp.Digest {
				return proto.VerdictReject
			}
		}
		return proto.VerdictPass
	case *Prepare:
		return vote(from, m.Replica, m.Sig)
	case *Commit:
		return vote(from, m.Replica, m.Sig)
	default:
		return proto.VerdictPass
	}
}

// vote rejects a vote whose identity is spoofed or that has no signature to
// retain for a later proof.
func vote(from, replica types.NodeID, sig []byte) proto.Verdict {
	if replica != from || len(sig) == 0 {
		return proto.VerdictReject
	}
	return proto.VerdictPass
}
