package core

import (
	"resilientdb/internal/crypto"
	"resilientdb/internal/pbft"
	"resilientdb/internal/proto"
	"resilientdb/internal/types"
)

// PreVerify performs the state-independent cryptographic checks of an
// inbound GeoBFT message: certificate verification of a GlobalShare that
// arrived from another cluster (n−f ed25519 signatures against the origin
// cluster's membership — the most expensive check in the system), Rvc
// signatures, and, via pbft.PreVerify, the local PBFT checks. It reads only
// construction-time immutable state (topology, membership, quorum size) and
// the atomic executed round, never the replica's other protocol state, so the
// fabric's verify pool calls it concurrently with the worker from many
// goroutines.
//
// Verdicts are decision-equivalent to the inline path: a rejected message is
// one Receive would unconditionally discard, and a verified message may skip
// exactly the checks performed here (ReceiveVerified) while every stateful
// guard — staleness, duplication, membership routing — still runs on the
// worker.
//
// Client requests carry a real per-client signature over the batch
// (pbft.RequestPayload): it is verified here whether the request came from
// the client directly or was re-forwarded by a backup, so a spoofed Client
// field — from a forging client or a Byzantine forwarder — can never reach
// the mempool's dedup state or the proposal queue. (The simulator does not
// route through PreVerify and keeps the paper's cost-only model.)
func (r *Replica) PreVerify(suite *crypto.Suite, from types.NodeID, msg types.Message) proto.Verdict {
	switch m := msg.(type) {
	case *pbft.Request:
		if !suite.Verify(m.Batch.Client, pbft.RequestPayload(&m.Batch), m.Sig) {
			return proto.VerdictReject
		}
		return proto.VerdictVerified
	case *GlobalShare:
		c := int(m.Cluster)
		if c < 0 || c >= r.cfg.Topo.Clusters || c == r.myCluster {
			return proto.VerdictReject
		}
		if !wellFormed(m) {
			return proto.VerdictReject
		}
		// Nothing to check here for a round already executed (the worker
		// drops it as stale) or for a copy a member of this cluster forwarded
		// (the worker counts it as a forward, see vouch.go).
		if m.Round <= r.executedRound.Load() || r.isLocalPeer(from) {
			return proto.VerdictPass
		}
		if !m.Cert.Verify(suite, r.cfg.Topo.ClusterMembers(c), r.quorum()) {
			return proto.VerdictReject
		}
		return proto.VerdictVerified
	case *DRvc:
		return proto.VerdictPass // MAC-authenticated only (modelled as cost)
	case *Rvc:
		// Routing guards first (immutable topology, same predicates onRvc
		// applies): they discard mis-routed requests for free, so a flood of
		// bogus Rvcs cannot make the pool pay a signature check each.
		if int(m.Target) != r.myCluster || int(m.From) == r.myCluster ||
			int(r.cfg.Topo.ClusterOf(m.Replica)) != int(m.From) {
			return proto.VerdictReject
		}
		if !suite.Verify(m.Replica, RvcPayload(m), m.Sig) {
			return proto.VerdictReject
		}
		return proto.VerdictVerified
	case *CatchUpResp:
		// Recovery decode/verify runs on the pool, not the worker: every
		// block's layout and commit certificate (n−f signatures against the
		// origin cluster's membership) is checked here, so a recovering
		// replica's worker only pays the cheap layout re-check per block.
		for _, b := range m.Blocks {
			if b == nil {
				return proto.VerdictReject
			}
			if err := r.verifyImportedLayout(b); err != nil {
				return proto.VerdictReject
			}
			cert := b.Cert.(*pbft.Certificate) // layout check guaranteed the type
			if !cert.Verify(suite, r.cfg.Topo.ClusterMembers(int(b.Cluster)), r.quorum()) {
				return proto.VerdictReject
			}
		}
		return proto.VerdictVerified
	case *SnapshotReq:
		return proto.VerdictPass // MAC-authenticated only
	case *SnapshotResp:
		if m.Manifest != nil {
			// Routing guard first (free): only self-endorsed manifests count
			// toward the f+1 quorum, so a relayed one is discarded before the
			// pool pays the certificate and signature checks.
			if m.Manifest.Replica != from {
				r.snapsRejected.Add(1) // atomic: safe from pool goroutines
				return proto.VerdictReject
			}
			if err := m.Manifest.Verify(r.cfg.Topo, suite); err != nil {
				// Counted into the snapshot-reject stream here (the worker
				// never sees the message); the fabric adds the generic
				// verify-reject on the verdict.
				r.snapsRejected.Add(1)
				return proto.VerdictReject
			}
			return proto.VerdictVerified
		}
		// State chunks are content-addressed against the accepted manifest —
		// inherently stateful, checked on the worker.
		return proto.VerdictPass
	default:
		return pbft.PreVerify(suite, from, msg)
	}
}
