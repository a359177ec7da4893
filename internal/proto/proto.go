// Package proto defines the environment abstraction shared by every
// consensus protocol implementation. A protocol core is a deterministic
// state machine that reacts to messages and timers; the Env interface is its
// only window to the world. Two implementations exist: the deterministic
// simulator (package detsim), on which every simulated experiment and every
// whole-deployment test runs, and the multi-threaded pipelined fabric
// (package fabric) used for real-time deployments — the same separation
// ResilientDB draws between protocol logic and its threaded architecture
// (paper Section 3). The client side of the protocol, Client, is written
// against the same Env.
package proto

import (
	"math/rand"
	"time"

	"resilientdb/internal/crypto"
	"resilientdb/internal/types"
)

// Timer is a cancellable one-shot timer handle.
type Timer interface {
	// Stop cancels the timer; a timer that already fired or was stopped is
	// unaffected.
	Stop()
}

// Env is a node's execution environment: identity, clock, messaging,
// timers and cryptography.
type Env interface {
	// ID returns this node's identifier.
	ID() types.NodeID
	// Now returns the node-local time.
	Now() time.Duration
	// Send transmits a message to another node.
	Send(to types.NodeID, m types.Message)
	// SetTimer schedules fn after d; the returned timer can be stopped.
	SetTimer(d time.Duration, fn func()) Timer
	// Suite returns this node's cryptographic suite.
	Suite() *crypto.Suite
	// Rand returns this node's deterministic randomness source.
	Rand() *rand.Rand
}

// Verdict is the outcome of a protocol's PreVerify: every state-independent
// receive-time check of an inbound message (client request signatures,
// preprepare batch digests, GeoBFT certificate and Rvc signatures, catch-up
// ranges, snapshot manifests), run once — inline, or by the fabric's verify
// pool before the message enters the worker queue. Pass and Verified both go
// to the apply path (core.Replica.ReceiveVerified), which runs none of those
// checks again; Reject is counted and dropped.
type Verdict int

const (
	// VerdictPass means the message has no state-independent cryptographic
	// check, or none worth running for it (a stale share, a forward that is
	// vouched for); the apply path's stateful guards decide.
	VerdictPass Verdict = iota
	// VerdictVerified means every state-independent cryptographic check
	// passed.
	VerdictVerified
	// VerdictReject means a check failed, or the message is provably forged
	// or mis-routed. It is dropped and counted.
	VerdictReject
)

// Multicast sends m to every listed node except the sender itself.
func Multicast(env Env, ids []types.NodeID, m types.Message) {
	self := env.ID()
	for _, id := range ids {
		if id != self {
			env.Send(id, m)
		}
	}
}

// Reply is the uniform execution reply a replica sends to the client that
// submitted a batch. Clients consider a batch complete once f+1 replicas
// sent matching replies (at most f can be faulty, so one reply is from a
// non-faulty replica — paper Section 2.4).
type Reply struct {
	// Client is the client the reply answers.
	Client types.NodeID
	// ClientSeq is the client's sequence number of the executed batch.
	ClientSeq uint64
	// Replica is the replica that executed it and replies.
	Replica types.NodeID
	// View is the replying replica's local view: clients learn from it
	// whom to send their next request to (see Client).
	View uint64
	// TxnCount is how many transactions the batch carried (it sizes the
	// reply).
	TxnCount int
	// Result commits to the execution outcome (here: the batch digest, as
	// our YCSB writes return no data).
	Result types.Digest
}

// MsgType implements types.Message.
func (*Reply) MsgType() string { return "reply" }

// WireSize implements types.Message (1.5 kB per 100-transaction batch).
func (r *Reply) WireSize() int {
	return types.HeaderBytes + types.ReplyBytesPerTxn*r.TxnCount
}
