package core

import (
	"fmt"

	"resilientdb/internal/crypto"
	"resilientdb/internal/ledger"
	"resilientdb/internal/pbft"
	"resilientdb/internal/proto"
	"resilientdb/internal/types"
)

// PreVerify performs every state-independent receive-time check of an
// inbound GeoBFT message: certificate verification of a GlobalShare that
// arrived from another cluster (n−f ed25519 signatures against the origin
// cluster's membership — the most expensive check in the system), Rvc
// routing and signatures, catch-up blocks, snapshot manifests, client request
// signatures, and, via pbft.PreVerify, the local PBFT checks. It reads only
// construction-time immutable state (topology, membership, quorum size) and
// the atomic executed round, never the replica's other protocol state, so the
// fabric's input goroutines call it concurrently with the worker.
//
// It is the only place these checks run. Receive runs it inline on the
// replica's own suite (the deterministic simulator, package detsim); the
// fabric's admission step runs it on an input goroutine, ahead of the
// worker. Either way a message it does not reject goes to ReceiveVerified,
// where every stateful guard — staleness, duplication, vouching — runs and
// no check runs again. Cheap routing guards come before the crypto, so traffic
// the worker would drop for free never costs a signature check.
//
// Client requests carry a real per-client signature over the batch
// (pbft.RequestPayload): it is verified here whether the request came from
// the client directly or was re-forwarded by a backup, so a spoofed Client
// field — from a forging client or a Byzantine forwarder — can never reach
// the mempool's dedup state or the proposal queue.
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
		// Routing first: a request for another cluster, one whose claimed
		// origin is not its signer's cluster, or one relayed by an outsider
		// that did not sign it is discarded before any signature check.
		if int(m.Target) != r.myCluster || int(m.From) == r.myCluster ||
			int(r.cfg.Topo.ClusterOf(m.Replica)) != int(m.From) ||
			m.Replica != from && int(r.cfg.Topo.ClusterOf(from)) != r.myCluster {
			return proto.VerdictReject
		}
		if !suite.Verify(m.Replica, RvcPayload(m), m.Sig) {
			return proto.VerdictReject
		}
		return proto.VerdictVerified
	case *CatchUpResp:
		// Only replicas serve ledger ranges; then every block's layout and
		// commit certificate is checked, so the worker imports the range
		// without re-verifying it.
		if from.IsClient() {
			return proto.VerdictReject
		}
		for _, b := range m.Blocks {
			if r.verifyBlock(suite, b) != nil {
				return proto.VerdictReject
			}
		}
		return proto.VerdictVerified
	case *SnapshotReq:
		return proto.VerdictPass // MAC-authenticated only
	case *SnapshotResp:
		// Only replicas serve snapshots, and only self-endorsed manifests
		// count toward the f+1 quorum: both guards are free and come before
		// the certificate and signature checks. Every reject is counted into
		// the snapshot-reject stream here; the caller adds the generic
		// verify-reject on the verdict.
		if from.IsClient() || m.Manifest != nil &&
			(m.Manifest.Replica != from || m.Manifest.Verify(r.cfg.Topo, suite) != nil) {
			r.snapsRejected.Add(1) // atomic: safe from pool goroutines
			return proto.VerdictReject
		}
		if m.Manifest != nil {
			return proto.VerdictVerified
		}
		// State chunks are content-addressed against the accepted manifest —
		// inherently stateful, checked on the worker.
		return proto.VerdictPass
	default:
		return pbft.PreVerify(suite, from, msg)
	}
}

// verifyBlock checks one certified block from outside the replica — a peer's
// catch-up range (PreVerify) or the replica's own disk (Bootstrap) — before
// the ledger accepts it: GeoBFT's layout invariants (round and cluster follow
// from the height), the certificate's binding to the block, and the commit
// certificate against the origin cluster's membership, the same Proposition
// 2.5 check applied to live GlobalShares. It reads only construction-time
// immutable state.
func (r *Replica) verifyBlock(suite *crypto.Suite, b *ledger.Block) error {
	if b == nil {
		return fmt.Errorf("geobft: nil block")
	}
	z := uint64(r.cfg.Topo.Clusters)
	c := int(b.Cluster)
	if c < 0 || c >= int(z) {
		return fmt.Errorf("geobft: cluster %d out of range", c)
	}
	if want := (b.Height-1)/z + 1; b.Round != want {
		return fmt.Errorf("geobft: height %d carries round %d, want %d", b.Height, b.Round, want)
	}
	if want := int((b.Height - 1) % z); c != want {
		return fmt.Errorf("geobft: height %d carries cluster %d, want %d", b.Height, c, want)
	}
	cert, ok := b.Cert.(*pbft.Certificate)
	if !ok || cert == nil {
		return fmt.Errorf("geobft: block %d has no commit certificate", b.Height)
	}
	if cert.Seq != b.Round {
		return fmt.Errorf("geobft: certificate seq %d != round %d", cert.Seq, b.Round)
	}
	if cert.Digest != b.BatchDigest {
		return fmt.Errorf("geobft: certificate digest mismatch at height %d", b.Height)
	}
	if !cert.Verify(suite, r.cfg.Topo.ClusterMembers(c), r.quorum()) {
		return fmt.Errorf("geobft: certificate verification failed at height %d", b.Height)
	}
	return nil
}
