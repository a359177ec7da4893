// Package kvstore implements the deterministic execution engine behind the
// ResilientDB reproduction: an in-memory key-value table in the style of the
// YCSB benchmark table the paper evaluates against (600k active records,
// write transactions). All non-faulty replicas apply the same batches in the
// same order and therefore maintain identical state digests, which the
// checkpoint sub-protocols compare.
package kvstore

import (
	"fmt"
	"hash/fnv"
	"sort"

	"resilientdb/internal/types"
)

// Store is a single replica's copy of the table. It is not safe for
// concurrent use; each replica owns one store and applies batches from its
// execution loop only.
//
// The preloaded table is dense — keys 0 … records−1, which is every key a
// YCSB workload draws — so those rows live in fixed-size chunks indexed by
// key, not in a map. A row is kept XORed with its key, so a
// preloaded row (key i → value i) is a zero word, and a chunk none of whose
// rows was ever written is not allocated at all: New writes nothing and
// allocates one pointer per chunk, and a chunk costs memory only once a key
// in it is written. Any other key (an RPC client may send one) goes to a
// spill map. How a row is held is invisible from outside: Get, Len, Digest
// and the serialized bytes do not depend on it.
type Store struct {
	chunks  []*chunk          // chunks[k>>chunkBits] holds dense key k; nil: every row preloaded
	records uint64            // dense keys are 0 … records−1
	spill   map[uint64]uint64 // every other row; nil until one exists
	applied uint64
	digest  uint64 // running chain over applied writes
}

// chunkBits sets the chunk size: 64 rows, 512 bytes. A write allocates at
// most one chunk, so a fresh store's first batches allocate kilobytes, not
// the table, and the pointer table is 1/64 of the rows.
const chunkBits = 6

// chunk holds dense rows, each value XOR its key.
type chunk [1 << chunkBits]uint64

// New returns a store preloaded with records rows (key i → value i),
// mirroring the paper's initialization of an identical YCSB table on every
// replica.
func New(records int) *Store {
	return &Store{chunks: make([]*chunk, (records+len(chunk{})-1)>>chunkBits), records: uint64(records)}
}

// setRow sets dense key k's value, allocating its chunk on first write.
func (s *Store) setRow(k, v uint64) {
	c := s.chunks[k>>chunkBits]
	if c == nil {
		c = new(chunk)
		s.chunks[k>>chunkBits] = c
	}
	c[k%uint64(len(c))] = v ^ k
}

// Apply executes one write transaction.
func (s *Store) Apply(t types.Transaction) {
	if t.Key < s.records {
		s.setRow(t.Key, t.Value)
	} else {
		if s.spill == nil {
			s.spill = make(map[uint64]uint64)
		}
		s.spill[t.Key] = t.Value
	}
	s.applied++
	h := fnv.New64a()
	var buf [24]byte
	put64(buf[0:8], s.digest)
	put64(buf[8:16], t.Key)
	put64(buf[16:24], t.Value)
	h.Write(buf[:])
	s.digest = h.Sum64()
}

// ApplyBatch executes every transaction in the batch, in order. No-op
// batches leave the state untouched but still advance the applied count so
// digests reflect the executed history.
func (s *Store) ApplyBatch(b *types.Batch) {
	if b.NoOp {
		return
	}
	for _, t := range b.Txns {
		s.Apply(t)
	}
}

// Get returns the value of key and whether it exists.
func (s *Store) Get(key uint64) (uint64, bool) {
	if key < s.records {
		if c := s.chunks[key>>chunkBits]; c != nil {
			return c[key%uint64(len(c))] ^ key, true
		}
		return key, true // preloaded
	}
	v, ok := s.spill[key]
	return v, ok
}

// Applied returns the number of transactions executed so far.
func (s *Store) Applied() uint64 { return s.applied }

// Digest returns the deterministic digest of the store's executed history.
// Two replicas that applied the same writes in the same order have equal
// digests.
func (s *Store) Digest() types.Digest {
	var d types.Digest
	put64(d[0:8], s.digest)
	put64(d[8:16], s.applied)
	return d
}

// Len returns the number of rows in the table.
func (s *Store) Len() int { return int(s.records) + len(s.spill) }

// Serialize returns the canonical byte encoding of the full store state:
// the applied count, the running digest, and every row in ascending key
// order, all big-endian and fixed-width. Two stores with identical state
// serialize to identical bytes, so the hash of this encoding is the state
// hash that checkpoint snapshots are content-addressed by.
func (s *Store) Serialize() []byte {
	// Spill keys are all ≥ records, so dense rows first, then the spill
	// keys sorted, is ascending key order.
	keys := make([]uint64, 0, len(s.spill))
	for k := range s.spill {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]byte, 24+16*s.Len())
	put64(out[0:8], s.applied)
	put64(out[8:16], s.digest)
	put64(out[16:24], uint64(s.Len()))
	off := 24
	var preloaded chunk // a chunk never written: every row is its key
	for i, c := range s.chunks {
		if c == nil {
			c = &preloaded
		}
		lo := uint64(i) << chunkBits
		for j, x := range c[:min(uint64(len(c)), s.records-lo)] {
			k := lo + uint64(j)
			put64(out[off:off+8], k)
			put64(out[off+8:off+16], x^k)
			off += 16
		}
	}
	for _, k := range keys {
		put64(out[off:off+8], k)
		put64(out[off+8:off+16], s.spill[k])
		off += 16
	}
	return out
}

// Restore replaces the store's entire state with the one in data, previously
// produced by Serialize. Malformed input (truncated, wrong row count,
// trailing bytes) is rejected without touching the store.
func (s *Store) Restore(data []byte) error {
	if len(data) < 24 {
		return fmt.Errorf("kvstore: snapshot too short: %d bytes", len(data))
	}
	applied := get64(data[0:8])
	digest := get64(data[8:16])
	n := get64(data[16:24])
	if n > uint64(len(data)-24)/16 || len(data) != 24+16*int(n) {
		return fmt.Errorf("kvstore: snapshot row count %d disagrees with %d payload bytes", n, len(data))
	}
	// Rows whose key equals their position are the dense prefix 0, 1, 2, …;
	// whatever follows the first gap spills. (Input rows need not be sorted
	// or distinct: a later row for a key overwrites an earlier one, as it
	// always did.)
	row := func(i int) (key, val uint64) {
		off := 24 + 16*i
		return get64(data[off : off+8]), get64(data[off+8 : off+16])
	}
	dense := 0
	for dense < int(n) {
		if k, _ := row(dense); k != uint64(dense) {
			break
		}
		dense++
	}
	restored := New(dense)
	for i := 0; i < dense; i++ {
		if _, v := row(i); v != uint64(i) {
			restored.setRow(uint64(i), v)
		}
	}
	var spill map[uint64]uint64
	for i := dense; i < int(n); i++ {
		k, v := row(i)
		if k < uint64(dense) {
			restored.setRow(k, v)
			continue
		}
		if spill == nil {
			spill = make(map[uint64]uint64, int(n)-dense)
		}
		spill[k] = v
	}
	s.chunks, s.records = restored.chunks, restored.records
	s.spill, s.applied, s.digest = spill, applied, digest
	return nil
}

func get64(src []byte) uint64 {
	_ = src[7]
	return uint64(src[0])<<56 | uint64(src[1])<<48 | uint64(src[2])<<40 |
		uint64(src[3])<<32 | uint64(src[4])<<24 | uint64(src[5])<<16 |
		uint64(src[6])<<8 | uint64(src[7])
}

func put64(dst []byte, v uint64) {
	_ = dst[7]
	dst[0] = byte(v >> 56)
	dst[1] = byte(v >> 48)
	dst[2] = byte(v >> 40)
	dst[3] = byte(v >> 32)
	dst[4] = byte(v >> 24)
	dst[5] = byte(v >> 16)
	dst[6] = byte(v >> 8)
	dst[7] = byte(v)
}
