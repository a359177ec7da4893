// Package proto defines the environment abstraction shared by every
// consensus protocol implementation. A protocol core is a deterministic
// state machine that reacts to messages and timers; the Env interface is its
// only window to the world. Two implementations exist: the discrete-event
// simulator (package simnet) used by all experiments, and the multi-threaded
// pipelined fabric (package fabric) used for real-time deployments — the
// same separation ResilientDB draws between protocol logic and its threaded
// architecture (paper Section 3).
package proto

import (
	"math/rand"
	"time"

	"resilientdb/internal/crypto"
	"resilientdb/internal/simnet"
	"resilientdb/internal/types"
)

// Timer is a cancellable one-shot timer handle.
type Timer interface {
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

// Verdict is the outcome of concurrent pre-verification. The fabric's verify
// pool runs every state-independent cryptographic check of an inbound message
// (PBFT commit signatures, preprepare batch digests, GeoBFT certificate and
// Rvc signatures) before the message enters the worker queue, and tags it
// with the verdict so the single-threaded state machine can skip
// re-verification without changing any protocol decision.
type Verdict int

const (
	// VerdictPass means the message has no state-independent cryptographic
	// checks; it takes the full (verifying) apply path.
	VerdictPass Verdict = iota
	// VerdictVerified means every state-independent cryptographic check
	// passed; the apply path may skip them.
	VerdictVerified
	// VerdictReject means a cryptographic check failed. The message must be
	// dropped — the state machine would discard it anyway, so dropping early
	// is decision-equivalent.
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

// simEnv adapts *simnet.Env to Env (the SetTimer return type differs).
type simEnv struct {
	*simnet.Env
}

func (s simEnv) SetTimer(d time.Duration, fn func()) Timer {
	return s.Env.SetTimer(d, fn)
}

// WrapSim adapts a simulator environment to the protocol Env interface.
func WrapSim(e *simnet.Env) Env { return simEnv{e} }

// Reply is the uniform execution reply a replica sends to the client that
// submitted a batch. Clients consider a batch complete once f+1 replicas
// sent matching replies (at most f can be faulty, so one reply is from a
// non-faulty replica — paper Section 2.4).
type Reply struct {
	Client    types.NodeID
	ClientSeq uint64
	Replica   types.NodeID
	TxnCount  int
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
