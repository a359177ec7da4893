// Package ledger implements the blockchain at the heart of the ResilientDB
// fabric: an immutable append-only chain in which the i-th block holds the
// i-th executed request batch together with the commit certificate that
// proves consensus on it (Section 3, "The ledger"). Each replica maintains
// a full copy; tampering is detectable by recomputing the hash chain.
package ledger

import (
	"fmt"
	"sync"
	"sync/atomic"

	"resilientdb/internal/types"
)

// Certificate is the consensus evidence attached to a block: proof that the
// block's batch was agreed at its round. The concrete type is the protocol's
// commit certificate (pbft.Certificate); the ledger treats it opaquely so it
// can sit below every protocol package. Catch-up re-verifies certificates
// through the verify callback of Import, supplied by the protocol layer.
type Certificate interface {
	// CertDigest commits to the certificate contents.
	CertDigest() types.Digest
	// WireSize is the modelled serialized size (types.Message convention).
	WireSize() int
}

// Block is one entry of the chain. In GeoBFT each round ρ appends z blocks,
// one per cluster, in the deterministic execution order.
type Block struct {
	// Height is the block's position in the chain, starting at 1.
	Height uint64
	// Round is the consensus round (sequence number) that produced it.
	Round uint64
	// Cluster is the cluster whose request the block holds.
	Cluster types.ClusterID
	// Batch is the executed request batch.
	Batch types.Batch
	// BatchDigest commits to the batch contents.
	BatchDigest types.Digest
	// CertDigest commits to the commit certificate proving consensus.
	CertDigest types.Digest
	// Cert is the commit certificate itself, retained so the chain can be
	// served to recovering replicas (Export/Import), which re-verify it.
	// Blocks appended with Append (digest only) carry no certificate and
	// cannot be exported for catch-up.
	Cert Certificate
	// Prev is the hash of the previous block (zero for the first block).
	// It travels on the catch-up wire and in the disk store, and Import
	// requires it to match the chain being extended — a range that splices
	// two histories is rejected at the boundary even when every certificate
	// it carries is individually valid.
	Prev types.Digest
	// Hash is the block's own hash over all fields above (excluding the
	// certificate — see blockHash). Like Prev it travels with the block and
	// Import requires it to match the recomputed value.
	Hash types.Digest
}

// Seal completes a hand-built block's linkage fields: Prev is set to the
// given predecessor hash and Hash recomputed over the contents. Chains built
// through Append/AppendCertified/Import never need it — those paths derive
// linkage as blocks enter the chain. It exists for code that constructs
// blocks outside a ledger (the byzantine adversary harness forging catch-up
// ranges, tests building spliced histories) so that Import's deeper checks —
// certificate verification, layout invariants — decide their fate instead of
// a trivially detectable zeroed linkage field.
func (b *Block) Seal(prev types.Digest) {
	b.Prev = prev
	b.Hash = blockHash(b)
}

// blockHash covers the ordered content of the chain. The commit certificate
// is deliberately excluded: it is attached evidence whose signer subset may
// legitimately differ between replicas (any n−f of the commit signatures
// prove the same decision), so including it would make identical histories
// hash differently.
func blockHash(b *Block) types.Digest {
	enc := types.NewEncoder(128)
	enc.U64(b.Height)
	enc.U64(b.Round)
	enc.I32(int32(b.Cluster))
	enc.Digest(b.BatchDigest)
	enc.Digest(b.Prev)
	return types.Hash(enc.Bytes())
}

// Store is a durable backend for the chain: every certified block the
// ledger accepts — appended by consensus execution (AppendCertified) or by
// catch-up (Import) — reaches it, in strict height order, from one goroutine
// at a time and never under the ledger's lock. When it reaches it depends on
// how the store was attached. SetStore is write-through: the store call runs
// inside the ledger operation, which returns with the block durable.
// StartPersister is what the live node uses: the ledger operation returns
// once the block is in the in-memory chain, a persister goroutine hands the
// store everything queued in one AppendBatch, and DurableHeight — not Height
// — says how much of the chain is on disk (see persist.go). The production
// implementation is the segmented append-only file store in
// internal/ledger/disk; the ledger treats the store as write-only (reading
// it back is the bootstrap path in internal/fabric, which re-verifies every
// recovered block before this ledger ever sees it).
type Store interface {
	// Append persists one certified block at its height and returns once it
	// is durable.
	Append(b *Block) error
}

// BatchStore is an optional Store extension for multi-block persistence: the
// persister's coalesced bursts and Import's verified ranges are handed over
// in one call, letting the backend spend a single fsync on the whole batch
// instead of one per block — with the same crash guarantee, since a machine
// crash mid-batch only ever costs a re-fetchable suffix nobody was told is
// durable.
type BatchStore interface {
	Store
	// AppendBatch persists the blocks in order and makes them durable as
	// one unit. The slice is the caller's and is reused after the call
	// returns; implementations must not retain it.
	AppendBatch(blocks []*Block) error
}

// Ledger is one replica's copy of the chain. Appends come from the replica's
// single-threaded executor; reads (Height, Head, Block, Verify, PrefixOf) are
// guarded by an internal lock so monitoring code can inspect the chain while
// the fabric is running.
type Ledger struct {
	mu     sync.RWMutex
	blocks []*Block

	// base is the height of the last block below the retained suffix: the
	// chain in memory holds heights base+1 … base+len(blocks). A fresh
	// ledger has base 0 (full history from height 1); a ledger anchored on a
	// verified checkpoint snapshot (AnchorSnapshot) or trimmed by checkpoint
	// GC (Prune) starts later, with baseHash standing in for the hash of the
	// block at height base so the chain's linkage stays verifiable.
	base     uint64
	baseHash types.Digest

	// store, when non-nil, receives every certified block. The first
	// persistence failure detaches it and is retained in storeErr:
	// consensus must not halt because a disk filled, but the gap must be
	// observable (StoreErr) rather than silent.
	store    Store
	storeErr error

	// The durability stage (persist.go). persister is non-nil while a
	// persister goroutine owns the store; staged is the hand-off the
	// appending goroutine is assembling for it (guarded by mu); durable is
	// the height the store has confirmed; queued counts blocks handed off
	// but not yet written.
	persister atomic.Pointer[persister]
	staged    handoff
	durable   atomic.Uint64
	queued    atomic.Int64
}

// New returns an empty ledger.
func New() *Ledger { return &Ledger{} }

// AnchorStore is an optional Store extension for snapshot-anchored chains:
// Reanchor discards every persisted block and re-bases the store so the next
// Append lands at base+1 — the durable mirror of AnchorSnapshot.
type AnchorStore interface {
	Store
	// Reanchor discards every persisted block and re-bases the empty store
	// at base, durably: a reopened store demands base+1 as its first height.
	Reanchor(base uint64) error
}

// AnchorSnapshot anchors the ledger on a verified checkpoint: the chain
// logically begins after height (whose block hash is hash), and the next
// accepted block must be height+1 with Prev == hash. It is the state-transfer
// entry point — callers must have verified the snapshot (commit certificate,
// state hash, manifest quorum) before anchoring. A chain that lies wholly
// below the checkpoint is discarded (its every block is covered by the
// verified snapshot state); a chain reaching the checkpoint or past it must
// not be anchored — it already holds what the snapshot would replace. An
// attached store is re-based alongside when it supports Reanchor, and
// detached (with StoreErr set) when it does not or the re-base fails, so
// disk and chain can never disagree about where history starts.
func (l *Ledger) AnchorSnapshot(height uint64, hash types.Digest) error {
	// Blocks still queued for the store belong to the chain being discarded:
	// let them land first, so the re-base below is the store's next operation.
	l.flush()
	l.mu.Lock()
	if height == 0 {
		l.mu.Unlock()
		return fmt.Errorf("ledger: anchor: height must be positive")
	}
	if head := l.base + uint64(len(l.blocks)); head >= height {
		l.mu.Unlock()
		return fmt.Errorf("ledger: anchor at %d would not extend the chain (height %d)", height, head)
	}
	l.blocks = nil
	l.base, l.baseHash = height, hash
	st := l.store
	l.mu.Unlock()
	if st == nil {
		return nil
	}
	// The persister is idle (flushed above, and only this goroutine feeds
	// it), so the store is ours to re-base — outside mu: it fsyncs.
	as, ok := st.(AnchorStore)
	var err error
	if !ok {
		err = fmt.Errorf("ledger: store cannot re-anchor at %d; store detached", height)
	} else {
		err = as.Reanchor(height)
	}
	if err != nil {
		l.detach(err)
		return nil
	}
	l.durable.Store(height)
	return nil
}

// Base returns the height of the last block below the retained suffix (0 for
// a full-history ledger). Blocks at or below Base are no longer served.
func (l *Ledger) Base() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.base
}

// Prune drops every retained block at or below height, advancing the base —
// checkpoint GC for the in-memory chain, mirroring the segment GC in
// ledger/disk. Pruning at or past the head is rejected (the tip must remain),
// as is pruning below the current base (a no-op is fine). The pruned blocks'
// linkage is preserved through the new baseHash.
func (l *Ledger) Prune(height uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if height <= l.base {
		return nil
	}
	if height >= l.base+uint64(len(l.blocks)) {
		return fmt.Errorf("ledger: prune %d would drop the head (height %d)", height, l.base+uint64(len(l.blocks)))
	}
	keep := height - l.base
	l.baseHash = l.blocks[keep-1].Hash
	l.blocks = append([]*Block(nil), l.blocks[keep:]...)
	l.base = height
	return nil
}

// SetStore attaches a durable backend write-through: every later certified
// append or import calls the store before it returns (tools, tests and
// benchmarks that want "one append, one fsync"; the live node attaches its
// store with StartPersister instead). Blocks already in the chain are NOT
// replayed into it — attach the store before appending, or after importing
// exactly the prefix the store already holds.
func (l *Ledger) SetStore(s Store) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.store = s
	l.storeErr = nil
	l.durable.Store(l.base + uint64(len(l.blocks)))
}

// StoreErr returns the persistence failure that detached the durable
// backend, or nil while persistence is healthy (or absent).
func (l *Ledger) StoreErr() error {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.storeErr
}

// NoteStoreFailure records a durable-backend failure observed outside the
// ledger's own append path — the runtime could not open, repair, or attach
// the node's store — detaching any attached store so StoreErr surfaces the
// durability gap through the same channel as an append failure. A nil err
// is a no-op.
func (l *Ledger) NoteStoreFailure(err error) {
	if err != nil {
		l.detach(err)
	}
}

// detach ends persistence: the store is dropped and the first failure kept
// for StoreErr. Consensus carries on memory-only.
func (l *Ledger) detach(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.storeErr == nil {
		l.storeErr = err
	}
	l.store = nil
}

// route sends blocks that just entered the chain toward the store: staged
// for the next Handoff while a persister runs, otherwise returned for the
// caller to write through once it has released mu (write waits for the
// disk). Called with mu held.
func (l *Ledger) route(blocks []*Block) (writeThrough []*Block) {
	switch {
	case l.store == nil:
		return nil
	case l.persister.Load() != nil:
		l.staged.blocks = append(l.staged.blocks, blocks...)
		return nil
	}
	return blocks
}

// write hands blocks to the attached store — one Append, or one AppendBatch
// when the store can make a range durable as a unit — and publishes the new
// durable height. It runs on the persister goroutine, or on the appending
// goroutine in write-through mode, never under mu. The first failure
// detaches the store. A block without a certificate cannot be persisted — it
// could never be re-verified at bootstrap — and since the store requires
// contiguous heights, one such block ends durability for the whole chain:
// the store detaches with an explanatory StoreErr rather than failing later
// with a confusing height mismatch. (The GeoBFT execution path only ever
// appends certified blocks, so this fires only on misuse.)
func (l *Ledger) write(blocks []*Block) {
	if len(blocks) == 0 {
		return
	}
	l.mu.RLock()
	st := l.store
	l.mu.RUnlock()
	if st == nil {
		return
	}
	var err error
	for i, b := range blocks {
		if b.Cert == nil {
			blocks = blocks[:i] // the certified prefix still lands
			err = fmt.Errorf("ledger: block %d has no certificate and cannot be persisted; store detached", b.Height)
			break
		}
	}
	if len(blocks) > 0 {
		if werr := appendTo(st, blocks); werr != nil {
			err = werr
		} else {
			l.durable.Store(blocks[len(blocks)-1].Height)
		}
	}
	if err != nil {
		l.detach(err)
	}
}

// appendTo makes blocks durable in st with as few barriers as st allows.
func appendTo(st Store, blocks []*Block) error {
	if bs, ok := st.(BatchStore); ok && len(blocks) > 1 {
		return bs.AppendBatch(blocks)
	}
	for _, b := range blocks {
		if err := st.Append(b); err != nil {
			return err
		}
	}
	return nil
}

// Append adds the next block for (round, cluster, batch, certDigest) and
// returns it.
func (l *Ledger) Append(round uint64, cluster types.ClusterID, batch types.Batch, certDigest types.Digest) *Block {
	return l.append(round, cluster, batch, certDigest, nil)
}

// AppendCertified adds the next block together with the commit certificate
// proving consensus on it, so the chain can later serve catch-up requests
// from recovering replicas.
func (l *Ledger) AppendCertified(round uint64, cluster types.ClusterID, batch types.Batch, cert Certificate) *Block {
	return l.append(round, cluster, batch, cert.CertDigest(), cert)
}

func (l *Ledger) append(round uint64, cluster types.ClusterID, batch types.Batch, certDigest types.Digest, cert Certificate) *Block {
	l.mu.Lock()
	b := &Block{
		Height:      l.base + uint64(len(l.blocks)+1),
		Round:       round,
		Cluster:     cluster,
		Batch:       batch,
		BatchDigest: batch.Digest(),
		CertDigest:  certDigest,
		Cert:        cert,
	}
	if len(l.blocks) > 0 {
		b.Prev = l.blocks[len(l.blocks)-1].Hash
	} else {
		b.Prev = l.baseHash
	}
	b.Hash = blockHash(b)
	l.blocks = append(l.blocks, b)
	var wt []*Block
	if l.store != nil { // keeps the one-element slice off the no-store path
		wt = l.route([]*Block{b})
	}
	l.mu.Unlock()
	if wt != nil {
		l.write(wt)
	}
	return b
}

// Height returns the height of the chain's head — the count of blocks in the
// full logical chain, including any snapshot-covered prefix below Base.
func (l *Ledger) Height() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.base + uint64(len(l.blocks))
}

// Head returns the hash of the latest block — the snapshot anchor hash if
// only the anchor is known — or the zero digest if empty.
func (l *Ledger) Head() types.Digest {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if len(l.blocks) == 0 {
		return l.baseHash
	}
	return l.blocks[len(l.blocks)-1].Hash
}

// Block returns the block at the given height (1-based), or nil when the
// height is past the head or inside the snapshot-covered prefix (≤ Base).
func (l *Ledger) Block(height uint64) *Block {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if height <= l.base || height > l.base+uint64(len(l.blocks)) {
		return nil
	}
	return l.blocks[height-l.base-1]
}

// Verify checks the full hash chain and block contents, returning an error
// at the first tampered block. A recovering replica runs this against a
// ledger it copied from an untrusted peer (Section 3).
func (l *Ledger) Verify() error {
	l.mu.RLock()
	defer l.mu.RUnlock()
	prev := l.baseHash
	for i, b := range l.blocks {
		if b.Height != l.base+uint64(i+1) {
			return fmt.Errorf("ledger: block %d has height %d", l.base+uint64(i+1), b.Height)
		}
		if b.Prev != prev {
			return fmt.Errorf("ledger: block %d has broken prev link", b.Height)
		}
		// RecomputedDigest bypasses the decode-time digest cache: tamper
		// detection must hash the fields as they are now, not as received.
		if got := b.Batch.RecomputedDigest(); got != b.BatchDigest {
			return fmt.Errorf("ledger: block %d batch digest mismatch", b.Height)
		}
		if got := blockHash(b); got != b.Hash {
			return fmt.Errorf("ledger: block %d hash mismatch", b.Height)
		}
		prev = b.Hash
	}
	return nil
}

// Export returns up to max blocks starting at height from (1-based), for
// serving a catch-up request. max <= 0 exports the whole tail. It returns nil
// when from is past the chain's end or inside the snapshot-covered prefix
// (≤ Base — the caller must offer snapshot-based state transfer instead), and
// stops early at the first block that carries no certificate (such blocks
// cannot be re-verified by the importer).
// Blocks are immutable once appended, so sharing the pointers is safe.
func (l *Ledger) Export(from uint64, max int) []*Block {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if from <= l.base || from > l.base+uint64(len(l.blocks)) {
		return nil
	}
	first := from - l.base // 1-based index into the retained suffix
	end := uint64(len(l.blocks))
	if max > 0 && first-1+uint64(max) < end {
		end = first - 1 + uint64(max)
	}
	out := make([]*Block, 0, end-first+1)
	for _, b := range l.blocks[first-1 : end] {
		if b.Cert == nil {
			break
		}
		out = append(out, b)
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Import verifies blocks as a contiguous, hash-chained extension of the chain
// and appends them atomically: on any error the ledger is unchanged. Each
// block's height must continue the chain, its batch must hash to BatchDigest
// (recomputed, so corruption is caught), its Prev must equal the hash of the
// block it extends, and its Hash must equal the recomputed value. Prev and
// Hash travel with the block (the catch-up wire codec and the disk store
// both carry them), so the linkage requirement is strict: a range that
// splices two histories — or hides its origin by zeroing the linkage — is
// rejected at the import boundary even when every commit certificate it
// carries is individually valid. verify, if non-nil, runs before any
// mutation and is where the protocol layer re-verifies the commit
// certificate against the origin cluster's membership (Section 3: a
// recovering replica copies the ledger from untrusted peers and validates it
// locally).
func (l *Ledger) Import(blocks []*Block, verify func(*Block) error) error {
	wt, err := l.importLocked(blocks, verify)
	l.write(wt)
	return err
}

// importLocked is Import under mu; it returns what the caller must write
// through once the lock is released (see route).
func (l *Ledger) importLocked(blocks []*Block, verify func(*Block) error) ([]*Block, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	prev := l.baseHash
	if n := len(l.blocks); n > 0 {
		prev = l.blocks[n-1].Hash
	}
	base := l.base + uint64(len(l.blocks))
	staged := make([]*Block, 0, len(blocks))
	for i, b := range blocks {
		if b == nil {
			return nil, fmt.Errorf("ledger: import: nil block at index %d", i)
		}
		want := base + uint64(i) + 1
		if b.Height != want {
			return nil, fmt.Errorf("ledger: import: block %d has height %d, want %d", i, b.Height, want)
		}
		if got := b.Batch.RecomputedDigest(); got != b.BatchDigest {
			return nil, fmt.Errorf("ledger: import: block %d batch digest mismatch", want)
		}
		if b.Prev != prev {
			return nil, fmt.Errorf("ledger: import: block %d breaks the hash chain", want)
		}
		// Stage a copy with the derived fields completed; the caller's blocks
		// (possibly shared with another ledger) are never mutated. The cheap
		// linkage checks run before the verify callback so a garbled range is
		// rejected without paying for certificate verification.
		nb := *b
		nb.Hash = blockHash(&nb)
		if b.Hash != nb.Hash {
			return nil, fmt.Errorf("ledger: import: block %d hash mismatch", want)
		}
		if verify != nil {
			if err := verify(b); err != nil {
				return nil, fmt.Errorf("ledger: import: block %d: %w", want, err)
			}
		}
		if nb.Cert != nil {
			nb.CertDigest = nb.Cert.CertDigest()
		}
		staged = append(staged, &nb)
		prev = nb.Hash
	}
	l.blocks = append(l.blocks, staged...)
	return l.route(staged), nil
}

// PrefixOf reports whether l is a prefix of other (used by tests to check
// non-divergence across replicas).
func (l *Ledger) PrefixOf(other *Ledger) bool {
	// Snapshot each side under its own lock rather than holding both: two
	// goroutines running a.PrefixOf(b) and b.PrefixOf(a) with writers queued
	// would otherwise deadlock. Blocks are immutable once appended and the
	// slice grows append-only, so the snapshots stay valid after unlock.
	l.mu.RLock()
	mBase, mAnchor, mine := l.base, l.baseHash, l.blocks
	l.mu.RUnlock()
	other.mu.RLock()
	oBase, oAnchor, theirs := other.base, other.baseHash, other.blocks
	other.mu.RUnlock()
	mHead := mBase + uint64(len(mine))
	oHead := oBase + uint64(len(theirs))
	if mHead > oHead {
		return false
	}
	// Cross-check each side's snapshot anchor against the other's retained
	// chain where it overlaps: an anchor claims the hash of the block at its
	// base height.
	if oBase > mBase && oBase <= mHead {
		if mine[oBase-mBase-1].Hash != oAnchor {
			return false
		}
	}
	if mBase > oBase && mBase <= oHead {
		if theirs[mBase-oBase-1].Hash != mAnchor {
			return false
		}
	}
	if mBase == oBase && mBase > 0 && mAnchor != oAnchor {
		return false
	}
	// Compare block hashes over the heights both sides retain. A snapshot-
	// anchored chain whose base is past the other's head has no overlap; the
	// anchor's verified commit certificate is then the only evidence, and
	// agreement cannot be disproved here.
	lo := mBase
	if oBase > lo {
		lo = oBase
	}
	for h := lo + 1; h <= mHead; h++ {
		if mine[h-mBase-1].Hash != theirs[h-oBase-1].Hash {
			return false
		}
	}
	return true
}
