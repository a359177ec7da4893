package fabric

import (
	"errors"
	"fmt"
	"time"

	"resilientdb/internal/config"
	"resilientdb/internal/crypto"
	"resilientdb/internal/ledger"
	"resilientdb/internal/mempool"
	"resilientdb/internal/pbft"
	"resilientdb/internal/types"
)

// This file is the fabric's client-facing front door: the entry points an
// RPC server (package rpc) uses to inject signed client requests and to
// answer proof-carrying reads, without touching the replica transport. Both
// paths run the same authentication and admission machinery as
// transport-delivered traffic — the front door is a second doorway into the
// Figure 9 pipeline, not a bypass around it.

// ErrBadSignature reports a front-door submit whose client signature failed
// verification. The request was not admitted; the rejection is counted in
// the node's VerifyReject drop counter like any other forged message.
var ErrBadSignature = errors.New("fabric: client request signature verification failed")

// ErrNodeStopped reports a front-door call against a node whose pipeline has
// shut down.
var ErrNodeStopped = errors.New("fabric: node stopped")

// ErrReadTimeout reports a proven read that expired before the worker loop
// got to it (the worker drains consensus work first; a saturated node can
// starve reads).
var ErrReadTimeout = errors.New("fabric: proven read timed out")

// ErrUnprovable reports that the node holds the requested block but declines
// to show it: the block is its own cluster's and the commit votes the node
// retains for it do not hold n−f valid signatures (a member of the cluster
// signed garbage). The refusal is counted in Stats().Crypto.Unprovable; ask
// another replica.
var ErrUnprovable = errors.New("fabric: block certificate cannot be proven by this replica")

// ID returns the node's replica identifier.
func (n *Node) ID() types.NodeID { return n.id }

// Height returns the node's current ledger height. The ledger is internally
// locked, so this is safe from any goroutine.
func (n *Node) Height() uint64 { return n.replica.Ledger().Height() }

// Head returns the hash of the node's head ledger block (zero for an empty
// chain).
func (n *Node) Head() types.Digest { return n.replica.Ledger().Head() }

// ExecutedRound returns the highest consensus round the node has executed.
func (n *Node) ExecutedRound() uint64 { return n.replica.ExecutedRound() }

// BlockAt returns the ledger block at height h exactly as the node holds it,
// or nil when h is beyond the head or pruned below the retention base. It is
// for in-process inspection: the certificate of a block from the node's own
// cluster may be one whose signatures the node has not checked (commit votes
// are counted on channel authentication). To hand a block to a third party
// as a proof use ShowBlock.
func (n *Node) BlockAt(h uint64) *ledger.Block { return n.replica.Ledger().Block(h) }

// onWorker runs fn on the worker loop and returns its result, or
// ErrNodeStopped / ErrReadTimeout when the worker does not get to it.
func onWorker[T any](n *Node, timeout time.Duration, fn func() (T, error)) (T, error) {
	type result struct {
		v   T
		err error
	}
	done := make(chan result, 1)
	n.post(func() {
		v, err := fn()
		done <- result{v, err}
	})
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	var zero T
	select {
	case r := <-done:
		return r.v, r.err
	case <-n.quit:
		return zero, ErrNodeStopped
	case <-timer.C:
		return zero, ErrReadTimeout
	}
}

// ShowBlock returns the ledger block at height h with a commit certificate
// the node has verified itself, fit to serve as a proof (the RPC block
// endpoint). It runs on the worker loop, which owns the retained votes a
// proof is assembled from. A nil block with a nil error means there is no
// such block (beyond the head, or pruned); ErrUnprovable means the node has
// it and cannot prove it.
func (n *Node) ShowBlock(h uint64, timeout time.Duration) (*ledger.Block, error) {
	return onWorker(n, timeout, func() (*ledger.Block, error) {
		if n.replica.Ledger().Block(h) == nil {
			return nil, nil
		}
		if b := n.replica.ShowBlock(h); b != nil {
			return b, nil
		}
		return nil, ErrUnprovable
	})
}

// SubmitRequest admits one signed client request arriving from outside the
// replica transport (the RPC front door). It runs the node's one admission
// step, the one transport-delivered messages take on the input threads —
// read-only Precheck to shed retry storms before paying signature
// verification, ed25519 verification of the client's signature, then Admit
// for dedup/replay/rate-limit classification — and admitted requests go to
// the worker loop. The verdict goes to the caller instead of a transport
// reply: it tells what happened (Admitted, Duplicate, Replayed,
// RateLimited); for Replayed the returned entry, when non-nil, is the replay
// window's record of the original execution, from which a reply can be
// re-served without re-executing.
func (n *Node) SubmitRequest(req *pbft.Request) (mempool.Verdict, *mempool.Executed, error) {
	return n.admit(req.Batch.Client, req)
}

// RequestStatus reports what this node knows about one (client, seq): still
// pending in consensus, executed (with the replay-window record when it is
// still inside the window), or unknown. It is the polling half of the RPC
// submit flow and never mutates admission state.
func (n *Node) RequestStatus(client types.NodeID, seq uint64) (mempool.RequestStatus, *mempool.Executed) {
	return n.pool.Lookup(client, seq)
}

// ReadState is one replica's signed attestation of a key's value at a ledger
// position: the payload of a proof-carrying read. The proof has two layers —
// the replica's signature over ReadStatePayload binds every field (including
// the head block's hash) to the replica's identity, and the embedded head
// block's commit certificate proves, without trusting this replica, that a
// quorum committed that chain position. A client that verifies both
// (VerifyReadState) gets Byzantine-evident reads from a single replica: a
// lying replica must either break ed25519 or present a certificate its
// cluster never signed.
type ReadState struct {
	// Replica is the attesting replica.
	Replica types.NodeID
	// Key is the key that was read.
	Key uint64
	// Value is the key's value; zero when Found is false.
	Value uint64
	// Found reports whether the key exists in the state machine.
	Found bool
	// Height is the ledger height at the moment of the read.
	Height uint64
	// Round is the highest consensus round executed at the moment of the
	// read.
	Round uint64
	// StateDigest is the full state-machine digest at the moment of the
	// read (the checkpoint digest other replicas would agree on).
	StateDigest types.Digest
	// Applied is the number of transactions applied to the state machine.
	Applied uint64
	// Block is the head ledger block, carried with its commit certificate so
	// the reader can verify quorum commitment independently. Nil only when
	// the chain is empty (Height == 0).
	Block *ledger.Block
	// Sig is the replica's signature over ReadStatePayload.
	Sig []byte
}

// ReadStatePayload returns the canonical signing payload for a read
// attestation: every ReadState field in fixed order, with the head block
// represented by its hash (which itself commits to the block's height,
// round, batch, and ancestry).
func ReadStatePayload(rs *ReadState) []byte {
	enc := types.NewEncoder(128)
	enc.String("resilientdb-read-v1")
	enc.I32(int32(rs.Replica))
	enc.U64(rs.Key)
	enc.U64(rs.Value)
	enc.Bool(rs.Found)
	enc.U64(rs.Height)
	enc.U64(rs.Round)
	enc.Digest(rs.StateDigest)
	enc.U64(rs.Applied)
	var head types.Digest
	if rs.Block != nil {
		head = rs.Block.Hash
	}
	enc.Digest(head)
	return enc.Bytes()
}

// ProvenRead reads one key and returns a signed, certificate-carrying
// attestation of its value. The read executes on the worker loop — the
// key-value store is single-threaded and worker-owned, so the front door
// posts a closure instead of touching it directly — which also means the
// result is a consistent cut: value, height, round, and state digest all
// come from the same instant between batch executions.
func (n *Node) ProvenRead(key uint64, timeout time.Duration) (*ReadState, error) {
	return onWorker(n, timeout, func() (*ReadState, error) {
		r := n.replica
		rs := &ReadState{Replica: n.id, Key: key}
		rs.Value, rs.Found = r.Store().Get(key)
		rs.Height = r.Ledger().Height()
		rs.Round = r.ExecutedRound()
		rs.StateDigest = r.Store().Digest()
		rs.Applied = r.Store().Applied()
		if rs.Height > 0 {
			// The head block's certificate is what makes the read provable to
			// a client: it leaves the replica here, so it is proven here.
			if rs.Block = r.ShowBlock(rs.Height); rs.Block == nil {
				return nil, ErrUnprovable
			}
		}
		rs.Sig = n.env.suite.Sign(ReadStatePayload(rs))
		return rs, nil
	})
}

// VerifyReadState checks a read attestation against the deployment's key
// material and topology, trusting nothing but the suite's public keys: the
// replica's signature over the canonical payload, the head block's binding
// to that payload, and the block's commit certificate (quorum signatures
// from the block's cluster). A nil error means tampering with any field —
// value, height, block contents, or certificate — would have required
// forging ed25519 signatures.
func VerifyReadState(suite *crypto.Suite, topo config.Topology, rs *ReadState) error {
	if int(rs.Replica) < 0 || int(rs.Replica) >= topo.TotalReplicas() {
		return fmt.Errorf("fabric: read proof from unknown replica %v", rs.Replica)
	}
	if !suite.Verify(rs.Replica, ReadStatePayload(rs), rs.Sig) {
		return fmt.Errorf("fabric: read proof signature from replica %v does not verify", rs.Replica)
	}
	if rs.Height == 0 {
		if rs.Block != nil {
			return errors.New("fabric: read proof carries a block for an empty chain")
		}
		return nil // empty chain: nothing to certify yet
	}
	blk := rs.Block
	if blk == nil {
		return errors.New("fabric: read proof missing its head block")
	}
	if blk.Height != rs.Height {
		return fmt.Errorf("fabric: read proof block height %d does not match attested height %d", blk.Height, rs.Height)
	}
	cert, ok := blk.Cert.(*pbft.Certificate)
	if !ok || cert == nil {
		return errors.New("fabric: read proof block carries no commit certificate")
	}
	if cert.Seq != blk.Round || cert.Digest != blk.BatchDigest {
		return errors.New("fabric: read proof certificate does not certify its block")
	}
	quorum := topo.PerCluster - topo.F()
	if !cert.Verify(suite, topo.ClusterMembers(int(blk.Cluster)), quorum) {
		return fmt.Errorf("fabric: read proof certificate fails quorum verification for cluster %d", blk.Cluster)
	}
	return nil
}
