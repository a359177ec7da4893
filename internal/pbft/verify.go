package pbft

import (
	"resilientdb/internal/crypto"
	"resilientdb/internal/proto"
	"resilientdb/internal/types"
)

// PreVerify performs the state-independent checks of a PBFT message: the
// preprepare batch/digest binding and the rule that a commit vote names its
// sender, exactly the predicates the apply path would evaluate. It touches
// no replica state, so the fabric's verify pool calls it concurrently from
// many goroutines (suite must honor crypto.Suite's concurrency contract).
//
// The mapping is decision-equivalent to the inline path: VerdictReject is
// returned only for messages the state machine would unconditionally discard,
// and VerdictVerified messages may skip exactly the checks performed here.
// No vote signature is checked on receipt, here or inline: prepare, commit
// and checkpoint votes are counted on their channel's authentication and
// their signatures verified only where a proof built from them is shown
// (Replica.Prove, buildViewChange). View-change and new-view messages verify
// inline on the worker (rare path, and their validation is entangled with
// quorum state).
func PreVerify(suite *crypto.Suite, from types.NodeID, msg types.Message) proto.Verdict {
	switch m := msg.(type) {
	case *PrePrepare:
		if m.Batch.Digest() != m.Digest {
			return proto.VerdictReject
		}
		return proto.VerdictVerified
	case *Commit:
		if m.Replica != from {
			return proto.VerdictReject
		}
		return proto.VerdictPass
	default:
		return proto.VerdictPass
	}
}
