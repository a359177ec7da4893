package pbft

import (
	"resilientdb/internal/kvstore"
	"resilientdb/internal/ledger"
	"resilientdb/internal/proto"
	"resilientdb/internal/types"
)

// Standalone is a complete PBFT replica: the consensus core plus execution
// against the YCSB table, ledger maintenance, and client replies. It is the
// paper's PBFT baseline, where all zn replicas across all regions form a
// single group coordinated by one primary (placed in Oregon, Section 4).
type Standalone struct {
	cfg     Config
	records int

	env    proto.Env
	core   *Replica
	store  *kvstore.Store
	ledger *ledger.Ledger
}

// NewStandalone returns a standalone replica; records sizes the preloaded
// table.
func NewStandalone(cfg Config, records int) *Standalone {
	return &Standalone{cfg: cfg, records: records}
}

// InitEnv wires the replica to any protocol environment (the deterministic
// simulator or the fabric).
func (s *Standalone) InitEnv(env proto.Env) {
	s.env = env
	s.store = kvstore.New(s.records)
	s.ledger = ledger.New()
	s.core = NewReplica(env, s.cfg, Hooks{Committed: s.onCommitted})
}

// Receive delivers one inbound message.
func (s *Standalone) Receive(from types.NodeID, msg types.Message) {
	if req, ok := msg.(*Request); ok && from.IsClient() {
		s.core.SubmitLocal(req.Batch, req.Sig, false)
		return
	}
	s.core.HandleMessage(from, msg)
}

func (s *Standalone) onCommitted(seq uint64, cert *Certificate) {
	s.env.Suite().ChargeExec(cert.Batch.Len())
	s.store.ApplyBatch(&cert.Batch)
	s.ledger.Append(seq, 0, cert.Batch, cert.CertDigest())
	if cert.Batch.NoOp {
		return
	}
	s.env.Suite().ChargeMAC()
	s.env.Send(cert.Batch.Client, &proto.Reply{
		Client:    cert.Batch.Client,
		ClientSeq: cert.Batch.Seq,
		Replica:   s.env.ID(),
		View:      s.core.View(),
		TxnCount:  cert.Batch.Len(),
		Result:    cert.Digest,
	})
}

// Core exposes the consensus state machine (tests, fault injection).
func (s *Standalone) Core() *Replica { return s.core }

// Ledger exposes the replica's chain.
func (s *Standalone) Ledger() *ledger.Ledger { return s.ledger }

// Store exposes the replica's table.
func (s *Standalone) Store() *kvstore.Store { return s.store }
