// Package types defines the identifiers, transaction model, message
// interfaces, and canonical binary encoding shared by every protocol and
// substrate in this repository.
//
// The consensus protocols (GeoBFT and PBFT) exchange
// values implementing Message. Wire sizes are modelled explicitly (see
// WireSize) so the network simulator can charge realistic latency and
// bandwidth costs; the constants are calibrated to the message sizes reported
// in the ResilientDB paper (Section 4: 5.4 kB preprepare, 6.4 kB commit
// certificate, 1.5 kB client response, 250 B control messages at batch 100).
package types

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// NodeID identifies a node (replica or client) in the system. Replica
// identifiers are dense, starting at zero; client identifiers start at
// ClientIDBase so the two ranges never collide.
type NodeID int32

// NoNode is the sentinel "no such node" value.
const NoNode NodeID = -1

// ClientIDBase is the first NodeID used for clients.
const ClientIDBase NodeID = 1 << 20

// IsClient reports whether id addresses a client rather than a replica.
func (id NodeID) IsClient() bool { return id >= ClientIDBase }

func (id NodeID) String() string {
	if id == NoNode {
		return "node(none)"
	}
	if id.IsClient() {
		return fmt.Sprintf("client%d", int32(id-ClientIDBase))
	}
	return fmt.Sprintf("r%d", int32(id))
}

// ClusterID identifies a cluster (one geographic region's replica group).
type ClusterID int32

// Digest is a 32-byte cryptographic digest (SHA-256).
type Digest [32]byte

// ZeroDigest is the all-zero digest, used for no-op and absent payloads.
var ZeroDigest Digest

// IsZero reports whether d is the all-zero digest.
func (d Digest) IsZero() bool { return d == ZeroDigest }

// Short returns an 8-hex-character prefix of the digest for logs.
func (d Digest) Short() string { return hex.EncodeToString(d[:4]) }

// Hash computes the SHA-256 digest of payload.
func Hash(payload []byte) Digest { return sha256.Sum256(payload) }

// Message is implemented by every protocol message. MsgType is a stable
// human-readable tag used in logs and metrics; WireSize is the modelled
// on-the-wire size in bytes used by the network simulator.
type Message interface {
	MsgType() string
	WireSize() int
}

// Wire size model, calibrated to the paper's reported sizes at batch 100.
const (
	// BytesPerTxn is the serialized size contributed by one transaction in a
	// request batch (5.4 kB preprepare / 100 txns ≈ 54 B).
	BytesPerTxn = 54
	// ControlBytes is the size of prepare/commit/vote style control messages.
	ControlBytes = 250
	// SigBytes is the modelled size of one digital signature entry inside a
	// certificate (the 6.4 kB certificate minus the 5.4 kB preprepare,
	// divided by the paper's seven commit messages ≈ 143 B).
	SigBytes = 143
	// ReplyBytesPerTxn is the per-transaction size of a client reply batch
	// (1.5 kB / 100 txns = 15 B).
	ReplyBytesPerTxn = 15
	// HeaderBytes is the fixed framing overhead of any message.
	HeaderBytes = 64
)

// Transaction is a single YCSB-style write operation against the replicated
// key-value table.
type Transaction struct {
	Key   uint64
	Value uint64
}

// Batch is a group of client transactions processed by consensus as a single
// request, as in the paper's request-batching design. Client is the
// submitting client, Seq the client-assigned batch sequence number.
type Batch struct {
	Client NodeID
	Seq    uint64
	Txns   []Transaction
	// NoOp marks a primary-proposed empty round (Section 2.5).
	NoOp bool

	// digest memoizes the canonical digest; hasDigest marks it valid. The
	// cache is written only while the batch is still private to a single
	// goroutine — at wire-decode time (DecodeBatch) or via an explicit
	// PrimeDigest before the batch is shared. Digest never memoizes lazily:
	// messages travel by pointer through the in-process transport, and a
	// lazy write would race between nodes' input goroutines.
	digest    Digest
	hasDigest bool
}

// Encode appends the canonical binary form of b to enc.
func (b *Batch) Encode(enc *Encoder) {
	enc.I32(int32(b.Client))
	enc.U64(b.Seq)
	enc.Bool(b.NoOp)
	enc.U32(uint32(len(b.Txns)))
	for _, t := range b.Txns {
		enc.U64(t.Key)
		enc.U64(t.Value)
	}
}

// DecodeBatch reads a Batch previously written with Encode. The batch's
// canonical digest is computed directly over the consumed wire bytes (they
// are the canonical encoding) and cached, so the hot-path consumers —
// preprepare digest checks, certificate verification, ledger appends — never
// re-encode the batch just to hash it.
func DecodeBatch(dec *Decoder) Batch {
	var b Batch
	mark := dec.off
	b.Client = NodeID(dec.I32())
	b.Seq = dec.U64()
	b.NoOp = dec.Bool()
	if n := dec.Count(16); n > 0 {
		b.Txns = make([]Transaction, n)
		for i := range b.Txns {
			b.Txns[i].Key = dec.U64()
			b.Txns[i].Value = dec.U64()
		}
	}
	if dec.err == nil {
		b.digest = Hash(dec.buf[mark:dec.off])
		b.hasDigest = true
	}
	return b
}

// Digest returns the canonical digest of the batch contents: the cached
// decode-time digest when present, a fresh computation otherwise. It never
// writes the cache (see the field comment on Batch).
func (b *Batch) Digest() Digest {
	if b.hasDigest {
		return b.digest
	}
	return b.computeDigest()
}

// PrimeDigest computes and caches the batch digest. Call it exactly once,
// after the batch contents are final and before the batch (or a message
// embedding it) is shared with other goroutines.
func (b *Batch) PrimeDigest() {
	if !b.hasDigest {
		b.digest = b.computeDigest()
		b.hasDigest = true
	}
}

// RecomputedDigest hashes the batch's current contents, bypassing the cache.
// Integrity checks over data that may have been mutated after decoding — the
// ledger's tamper detection — must use it: the cached digest reflects the
// bytes as received, not the fields as they are now.
func (b *Batch) RecomputedDigest() Digest { return b.computeDigest() }

func (b *Batch) computeDigest() Digest {
	var enc Encoder
	b.Encode(&enc)
	return Hash(enc.Bytes())
}

// WireSize is the modelled serialized size of the batch.
func (b *Batch) WireSize() int { return HeaderBytes + BytesPerTxn*len(b.Txns) }

// Len returns the number of transactions in the batch.
func (b *Batch) Len() int { return len(b.Txns) }

// Key helper: deterministic uint64 → bytes for MAC/hash payloads.
func U64Bytes(v uint64) []byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], v)
	return buf[:]
}
