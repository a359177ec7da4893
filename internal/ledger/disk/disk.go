// Package disk implements the ledger's durable backend: a segmented,
// append-only block store that makes the paper's "crash with disk" recovery
// path literal. Certified blocks are framed with the canonical wire codec of
// internal/types — the bytes on disk are the same bytes a catch-up response
// carries over the network — and written to fixed-size segment files, each
// record protected by a CRC. On open the store replays every segment,
// truncates a torn tail (the partial record a crash mid-write leaves behind),
// and hands the surviving prefix back so the node can re-verify it through
// the ordinary ledger Import path before serving a single block.
//
// Layout of a store directory:
//
//	<dir>/seg-00000001.rdb
//	<dir>/seg-00000002.rdb
//	...
//
// Each segment starts with a 16-byte header — magic "RDBL", a u32 format
// version, and the u64 height of the segment's first block — followed by
// records of the form
//
//	u32 payload length | payload (one wire-encoded block) | u32 CRC-32C
//
// Durability: by default Append and AppendBatch return only after an fsync —
// one per call, so a batch of blocks costs the same barrier as one block and
// whatever they wrote survives machine power loss. The live node exploits
// exactly that: its ledger's persister (ledger.StartPersister) is the
// store's only writer and hands it, in one AppendBatch, every block that
// accumulated while the previous fsync was in flight — commit-time
// coalescing, with no timer — and the node acknowledges a batch to its
// client only once the call covering its block has returned.
// Options.GroupCommit is the other trade: appends return after the OS write
// and a background flusher fsyncs on a timer, so a process kill loses
// nothing (the page cache survives the process) but a machine crash can lose
// up to one interval of blocks the node already acknowledged. Either way
// recovery never yields a hole: the store only ever loses a suffix, and the
// consensus layer re-fetches lost suffixes from peers via ledger catch-up.
//
// Locking: writers (appends, Sync, Truncate, Reanchor, ReclaimBelow, Close)
// serialize on one mutex that is held across their fsyncs; the index that
// readers consult (Height, Base, Block, Bytes, Segments, Err) sits under a
// second mutex that is never held across an fsync, so monitoring and block
// reads do not queue behind the disk.
//
// The store is deliberately dumb about trust: CRCs catch accidental
// corruption, not tampering. A node treats its own disk like an untrusted
// peer — every recovered block's commit certificate is re-verified by
// core.Replica.Bootstrap before it reaches the live chain — so the store
// never needs a key and never serves an unverified block to the protocol.
package disk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"resilientdb/internal/ledger"
	"resilientdb/internal/types"
)

// BlockCodec converts blocks to and from their persisted byte form. The
// production implementation is core.BlockCodec, which reuses the catch-up
// wire encoding so disk format and network format never diverge.
type BlockCodec interface {
	// EncodeBlock appends the canonical byte form of b to enc.
	EncodeBlock(enc *types.Encoder, b *ledger.Block)
	// DecodeBlock reads one block; it reports malformed input as an error
	// and must never panic (recovery feeds it bytes from a crashed disk).
	DecodeBlock(dec *types.Decoder) (*ledger.Block, error)
}

// Options tunes a store's segment size and durability mode.
type Options struct {
	// SegmentBytes caps the size of one segment file; the store rolls to a
	// new segment when the next record would exceed it (a segment always
	// holds at least one record, so oversized blocks still fit). 0 selects
	// DefaultSegmentBytes.
	SegmentBytes int64
	// GroupCommit, when positive, batches fsyncs: appends return after the
	// OS write and a background flusher syncs dirty segments at this
	// interval (Close and Sync always flush). Zero fsyncs on every append.
	GroupCommit time.Duration
	// NoSync disables fsync entirely (benchmarks, throwaway test dirs).
	// Process crashes still lose nothing — the page cache is the OS's —
	// but machine crashes can lose or tear arbitrarily much.
	NoSync bool
}

// DefaultSegmentBytes is the segment size cap when Options.SegmentBytes is 0.
const DefaultSegmentBytes = 4 << 20

// maxRecordBytes bounds one record's payload, so a corrupt length field can
// never drive a huge allocation during recovery.
const maxRecordBytes = 8 << 20

const (
	segPrefix = "seg-"
	segSuffix = ".rdb"
	headerLen = 16
	// formatVer names the record encoding inside a segment. Version 2 added
	// the block's Prev/Hash linkage digests to the record payload (the
	// catch-up wire codec carries them so ledger.Import can enforce strict
	// linkage); version-1 stores fail Open loudly instead of silently
	// decoding garbage — wipe the data directory and let the node recover
	// over the network (an amnesia restart).
	formatVer = 2
)

var segMagic = [4]byte{'R', 'D', 'B', 'L'}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt marks a store whose committed prefix cannot be recovered
// structurally — corruption in a sealed (non-last) segment, a missing
// segment, or a height discontinuity. Open fails cleanly with it rather
// than guessing; torn tails in the last segment are repaired, not errors.
var ErrCorrupt = errors.New("disk: corrupt block store")

// RecoveryStats reports what Open had to repair.
type RecoveryStats struct {
	// TruncatedBytes is how many trailing bytes were cut as a torn tail.
	TruncatedBytes int64
	// RemovedSegments counts trailing segments dropped whole (a segment
	// whose header itself was torn by the crash).
	RemovedSegments int
}

// recordLoc locates one persisted block: index[i] of a Store locates the
// record for block height i+1.
type recordLoc struct {
	seg int   // segment index (1-based, as in the file name)
	off int64 // record start offset within the segment file
	n   int   // framed record length (length prefix and CRC included)
}

// Store is a segmented append-only block store. It implements ledger.Store,
// so attaching it to a ledger (Ledger.SetStore) persists every certified
// block the consensus layer appends. Appends must arrive in strict height
// order starting at Height()+1; the ledger guarantees that.
//
// All methods are safe for concurrent use; appends are expected from a single
// writer (the ledger's persister) with Sync/Close racing it at shutdown.
type Store struct {
	dir   string
	codec BlockCodec
	opts  Options

	// wmu serializes every operation that writes files and is held across
	// their fsyncs. It guards the open segment (cur, curSeg, curSize), dirty
	// and syncedTo. Lock order: wmu, then mu.
	wmu      sync.Mutex
	lock     *os.File // held flock on dir/LOCK (nil on non-unix platforms)
	cur      *os.File // last segment, open for append (nil: empty store)
	curSeg   int      // its index; 0 when the store holds no segments
	curSize  int64
	dirty    bool
	syncedTo uint64 // height covered by the last commit fsync (or found at Open)

	// mu guards what readers see — segs, index, base, closed, err, recovered
	// — and is never held across an fsync. Writers mutate these under both
	// locks.
	mu    sync.Mutex
	segs  []int // sorted indices of existing segment files
	index []recordLoc
	// base is the height of the last block below the stored suffix: the
	// store holds heights base+1 … base+len(index). A store created before
	// any checkpoint has base 0; checkpoint GC (ReclaimBelow) advances it a
	// whole segment at a time, and a store created by snapshot-based state
	// transfer adopts its base from the first appended block.
	base      uint64
	closed    bool
	err       error // sticky write failure; the store refuses further writes
	recovered RecoveryStats

	// Commit fsyncs and the blocks they made durable; their ratio is the
	// coalescing factor (see SyncStats).
	syncs        atomic.Uint64
	syncedBlocks atomic.Uint64

	flushQuit chan struct{}
	flushDone chan struct{}
}

// Open opens (or creates) the store in dir, replays its segments, repairs a
// torn tail, and returns the recovered blocks in height order. The caller
// owns re-verifying the blocks (certificates, hash chain) before trusting
// them; Open guarantees only structural integrity — contiguous heights from
// the store's Base()+1 (1 for a store never GC'd), CRC-clean records, every
// block carrying a certificate.
func Open(dir string, codec BlockCodec, opts Options) (*Store, []*ledger.Block, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("disk: %w", err)
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, nil, err
	}
	s := &Store{dir: dir, codec: codec, opts: opts, lock: lock}
	blocks, err := s.recover()
	if err != nil {
		unlockDir(lock)
		return nil, nil, err
	}
	s.syncedTo = s.base + uint64(len(s.index))
	if opts.GroupCommit > 0 && !opts.NoSync {
		s.flushQuit = make(chan struct{})
		s.flushDone = make(chan struct{})
		go s.flusher()
	}
	return s, blocks, nil
}

// listSegments returns the sorted indices of segment files present in dir.
// Files that do not match the segment name pattern are ignored.
func listSegments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("disk: %w", err)
	}
	var segs []int
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || len(name) != len(segPrefix)+8+len(segSuffix) ||
			name[:len(segPrefix)] != segPrefix || name[len(name)-len(segSuffix):] != segSuffix {
			continue
		}
		idx, digits := 0, name[len(segPrefix):len(name)-len(segSuffix)]
		for i := 0; i < len(digits); i++ {
			if digits[i] < '0' || digits[i] > '9' {
				idx = 0
				break
			}
			idx = idx*10 + int(digits[i]-'0')
		}
		if idx < 1 {
			continue // near-miss names (stray files) are ignored, not mapped
		}
		segs = append(segs, idx)
	}
	sort.Ints(segs)
	return segs, nil
}

func (s *Store) segPath(idx int) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%08d%s", segPrefix, idx, segSuffix))
}

// lockPath is the advisory lock file guarding a store directory.
func lockPath(dir string) string { return filepath.Join(dir, "LOCK") }

// basePath is the checkpoint-GC marker: 8 big-endian bytes naming the store's
// base height. Its absence means base 0 (full history). It exists so a GC'd
// store — whose first segment legitimately starts above height 1 — stays
// distinguishable from a store that lost a segment, which must fail Open.
func basePath(dir string) string { return filepath.Join(dir, "BASE") }

// readBaseMarker returns the recorded base, or 0 when absent or unreadable
// (an unreadable marker degrades to the strictest interpretation: the store
// must then start at height 1 or fail as corrupt).
func readBaseMarker(dir string) uint64 {
	data, err := os.ReadFile(basePath(dir))
	if err != nil || len(data) != 8 {
		return 0
	}
	return binary.BigEndian.Uint64(data)
}

// writeBaseMarker durably records base (removing the marker for base 0). The
// marker is written before segments are reclaimed, so a crash mid-GC leaves
// stale sub-base segments that recovery deletes — never a marker claiming
// less than what was already removed. Called with wmu held.
func (s *Store) writeBaseMarker(base uint64) error {
	if base == 0 {
		if err := os.Remove(basePath(s.dir)); err != nil && !os.IsNotExist(err) {
			return err
		}
		return nil
	}
	tmp, err := os.CreateTemp(s.dir, "BASE.tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], base)
	if _, err := tmp.Write(buf[:]); err != nil {
		tmp.Close()
		return err
	}
	if !s.opts.NoSync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), basePath(s.dir)); err != nil {
		return err
	}
	if !s.opts.NoSync {
		return s.syncDir()
	}
	return nil
}

// recover scans the segments in order, building the in-memory index and
// decoding every block. A structural failure in the last segment is a torn
// tail and is truncated away; the same failure in a sealed segment aborts
// with ErrCorrupt (data after it would be unanchored, and a crash cannot
// produce that shape — segments are sealed before a successor is created).
func (s *Store) recover() ([]*ledger.Block, error) {
	segs, err := listSegments(s.dir)
	if err != nil {
		return nil, err
	}
	// The BASE marker names the height GC reclaimed through: the first kept
	// segment must start exactly at base+1 (1 when no marker), so a missing
	// or reordered segment still fails loudly while a GC'd store opens clean.
	s.base = readBaseMarker(s.dir)
	var blocks []*ledger.Block
	next := s.base + 1
scan:
	for k := 0; k < len(segs); k++ {
		idx, last := segs[k], k == len(segs)-1
		path := s.segPath(idx)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("disk: %w", err)
		}
		if len(data) >= headerLen && [4]byte(data[:4]) == segMagic {
			if v := binary.BigEndian.Uint32(data[4:8]); v != formatVer {
				// A cleanly written header with a different version is not a
				// crash artifact — the store was written by a different
				// build of the record codec. Deleting it would be silent
				// data loss; fail loudly and let the operator wipe the
				// directory for an amnesia restart.
				return nil, fmt.Errorf("%w: segment %d has format version %d, this build reads %d",
					ErrCorrupt, idx, v, formatVer)
			}
		}
		headerOK := len(data) >= headerLen && [4]byte(data[:4]) == segMagic &&
			binary.BigEndian.Uint32(data[4:8]) == formatVer
		var first uint64
		if headerOK {
			first = binary.BigEndian.Uint64(data[8:16])
		}
		if headerOK && first >= 1 && first <= s.base && len(blocks) == 0 {
			// A whole segment below the marker is an interrupted GC: the
			// marker was durably advanced but the crash hit before this file
			// was removed. Finish the job. (GC reclaims whole segments, so a
			// sub-base segment can never carry blocks above the base.)
			if err := os.Remove(path); err != nil {
				return nil, fmt.Errorf("disk: %w", err)
			}
			s.recovered.RemovedSegments++
			segs = append(segs[:k:k], segs[k+1:]...)
			k--
			continue
		}
		if !headerOK || first != next {
			// Only shapes a crash can produce are repaired by dropping the
			// file: a short or garbled header (the segment was created but
			// its header write tore), or a record-less segment whose header
			// bytes are wrong (nothing is lost by removing it). A fully
			// valid header carrying the wrong first height over real records
			// means a missing or reordered segment — destroying CRC-valid
			// blocks to "repair" that would be data loss, so it fails.
			if !last || (headerOK && len(data) > headerLen) {
				return nil, fmt.Errorf("%w: segment %d has a bad header", ErrCorrupt, idx)
			}
			if err := os.Remove(path); err != nil {
				return nil, fmt.Errorf("disk: %w", err)
			}
			s.recovered.RemovedSegments++
			s.recovered.TruncatedBytes += int64(len(data))
			segs = segs[:k]
			break
		}
		off := headerLen
		for off < len(data) {
			rec, b := s.parseRecord(data[off:], next)
			if b == nil {
				if !last {
					return nil, fmt.Errorf("%w: segment %d has a bad record at offset %d", ErrCorrupt, idx, off)
				}
				// Torn tail: cut the partial record and everything after it.
				if err := os.Truncate(path, int64(off)); err != nil {
					return nil, fmt.Errorf("disk: %w", err)
				}
				s.recovered.TruncatedBytes += int64(len(data) - off)
				s.curSize = int64(off)
				break scan
			}
			blocks = append(blocks, b)
			s.index = append(s.index, recordLoc{seg: idx, off: int64(off), n: rec})
			next++
			off += rec
		}
		s.curSize = int64(len(data))
	}
	s.segs = segs
	if len(segs) > 0 {
		s.curSeg = segs[len(segs)-1]
		f, err := os.OpenFile(s.segPath(s.curSeg), os.O_RDWR, 0o644)
		if err != nil {
			return nil, fmt.Errorf("disk: %w", err)
		}
		if _, err := f.Seek(0, 2); err != nil {
			f.Close()
			return nil, fmt.Errorf("disk: %w", err)
		}
		s.cur = f
	}
	return blocks, nil
}

// parseRecord decodes one framed record expected to hold block height want.
// It returns the framed length and the block, or (0, nil) if the bytes are
// torn, CRC-damaged, undecodable, or carry the wrong height — recovery treats
// all of those identically.
func (s *Store) parseRecord(rest []byte, want uint64) (int, *ledger.Block) {
	if len(rest) < 4 {
		return 0, nil
	}
	n := binary.BigEndian.Uint32(rest)
	if n == 0 || n > maxRecordBytes || len(rest) < int(4+n+4) {
		return 0, nil
	}
	payload := rest[4 : 4+n]
	if binary.BigEndian.Uint32(rest[4+n:8+n]) != crc32.Checksum(payload, castagnoli) {
		return 0, nil
	}
	dec := types.NewDecoder(payload)
	b, err := s.codec.DecodeBlock(dec)
	if err != nil || dec.Err() != nil || dec.Remaining() != 0 ||
		b == nil || b.Height != want || b.Cert == nil {
		return 0, nil
	}
	return int(8 + n), b
}

// Append persists one certified block at the next height: one write and —
// unless Options.GroupCommit or NoSync relax it — one fsync before it
// returns. It implements ledger.Store.
func (s *Store) Append(b *ledger.Block) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if err := s.appendW(b); err != nil {
		return err
	}
	return s.commitW()
}

// AppendBatch persists a range with a single durability barrier at the end —
// one fsync however many blocks, which is what lets the ledger's persister
// coalesce every block that arrived during the previous fsync, and catch-up
// sync once per chunk. It implements ledger.BatchStore. A mid-batch failure
// leaves a clean, recoverable prefix (the sticky error keeps the damage a
// tail).
func (s *Store) AppendBatch(blocks []*ledger.Block) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	for _, b := range blocks {
		if err := s.appendW(b); err != nil {
			return err
		}
	}
	return s.commitW()
}

// appendW frames and writes one block without syncing. Called with wmu held.
func (s *Store) appendW(b *ledger.Block) error {
	if err := s.writable(); err != nil {
		return err
	}
	if b == nil || b.Cert == nil {
		return fmt.Errorf("disk: block carries no certificate")
	}
	if height := s.Height(); b.Height != height+1 {
		return fmt.Errorf("disk: append height %d, store is at %d", b.Height, height)
	}

	payload := types.GetEncoder()
	defer payload.Release()
	s.codec.EncodeBlock(payload, b)
	if payload.Len() > maxRecordBytes {
		return fmt.Errorf("disk: block %d encodes to %d bytes (max %d)", b.Height, payload.Len(), maxRecordBytes)
	}
	frame := types.GetEncoder()
	defer frame.Release()
	frame.BytesN(payload.Bytes()) // u32 length + payload
	frame.U32(crc32.Checksum(payload.Bytes(), castagnoli))

	if s.cur == nil || (s.curSize > headerLen && s.curSize+int64(frame.Len()) > s.opts.SegmentBytes) {
		if err := s.roll(b.Height); err != nil {
			return s.fail(err)
		}
	}
	off := s.curSize
	if _, err := s.cur.Write(frame.Bytes()); err != nil {
		// A partial write leaves a torn tail; the sticky error stops further
		// appends so the damage stays a tail, which recovery repairs.
		return s.fail(err)
	}
	s.curSize += int64(frame.Len())
	s.mu.Lock()
	s.index = append(s.index, recordLoc{seg: s.curSeg, off: off, n: frame.Len()})
	s.mu.Unlock()
	return nil
}

// commitW applies the durability policy after one append or batch: fsync now
// (the default), or mark dirty for the group-commit flusher. Called with wmu
// held.
func (s *Store) commitW() error {
	if s.opts.GroupCommit > 0 || s.opts.NoSync {
		s.dirty = s.cur != nil
		return nil
	}
	return s.syncW()
}

// syncW fsyncs the open segment and accounts the blocks that made durable.
// Called with wmu held — and mu not: this is the one place the store waits
// for the disk on the commit path, and readers must not wait with it.
func (s *Store) syncW() error {
	s.dirty = false
	if s.opts.NoSync || s.cur == nil {
		return nil // nothing was ever written (empty batch on a fresh store)
	}
	if err := s.cur.Sync(); err != nil {
		return s.fail(err)
	}
	s.syncs.Add(1)
	if h := s.Height(); h > s.syncedTo {
		s.syncedBlocks.Add(h - s.syncedTo)
		s.syncedTo = h
	}
	return nil
}

// roll seals the current segment and starts a new one whose first block is
// height first. The new header is synced before any record follows it, so a
// machine crash cannot persist records under an unwritten header. Called with
// wmu held.
func (s *Store) roll(first uint64) error {
	if s.cur != nil {
		if !s.opts.NoSync {
			if err := s.cur.Sync(); err != nil {
				return err
			}
		}
		if err := s.cur.Close(); err != nil {
			return err
		}
		s.cur = nil
	}
	idx := s.curSeg + 1
	f, err := os.OpenFile(s.segPath(idx), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	var hdr [headerLen]byte
	copy(hdr[:4], segMagic[:])
	binary.BigEndian.PutUint32(hdr[4:8], formatVer)
	binary.BigEndian.PutUint64(hdr[8:16], first)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	if !s.opts.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		if err := s.syncDir(); err != nil {
			f.Close()
			return err
		}
	}
	s.cur, s.curSeg, s.curSize = f, idx, headerLen
	s.mu.Lock()
	s.segs = append(s.segs, idx)
	s.mu.Unlock()
	return nil
}

// fail records the first write failure and poisons the store: every later
// write returns the same error, so a half-written tail never grows into a
// half-written middle. Called without mu.
func (s *Store) fail(err error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = fmt.Errorf("disk: %w", err)
	}
	return s.err
}

// writable reports why the store refuses writes: it is closed, or an earlier
// write failed.
func (s *Store) writable() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("disk: store is closed")
	}
	return s.err
}

// Sync forces dirty data to stable storage (a no-op under NoSync).
func (s *Store) Sync() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return s.syncW()
}

// flusher is the group-commit loop: it syncs dirty segments every
// Options.GroupCommit until Close.
func (s *Store) flusher() {
	defer close(s.flushDone)
	t := time.NewTicker(s.opts.GroupCommit)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.wmu.Lock()
			if s.dirty {
				s.syncW() // a failure is sticky: the next append reports it
			}
			s.wmu.Unlock()
		case <-s.flushQuit:
			return
		}
	}
}

// Truncate drops every block above height, so the store matches a ledger
// that accepted only a prefix of the recovered chain (bootstrap trims to a
// round boundary; a chain that fails re-verification is dropped whole with
// Truncate(0)). The next Append must supply height+1.
func (s *Store) Truncate(height uint64) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if err := s.writable(); err != nil {
		return err
	}
	base, top := s.Base(), s.Height() // stable: every writer of either holds wmu
	if height >= top {
		return nil
	}
	if err := s.closeCur(); err != nil {
		return s.fail(err)
	}
	if height <= base {
		// Cutting into (or below) the GC'd prefix leaves nothing servable:
		// wipe the segments whole. Truncating to exactly the base keeps the
		// marker (the store stays anchored and the next append is base+1);
		// cutting below it resets the store to a fresh, unanchored one.
		if height < base {
			base = 0
		}
		return s.wipeSegments(base)
	}
	// Readers stop seeing the cut blocks before their files change.
	s.mu.Lock()
	cut := s.index[height-base] // the record for block height+1
	s.index = s.index[:height-base]
	var drop []int
	for len(s.segs) > 0 && s.segs[len(s.segs)-1] > cut.seg {
		drop = append(drop, s.segs[len(s.segs)-1])
		s.segs = s.segs[:len(s.segs)-1]
	}
	s.mu.Unlock()
	s.syncedTo = min(s.syncedTo, height)
	for _, idx := range drop {
		if err := os.Remove(s.segPath(idx)); err != nil {
			return s.fail(err)
		}
	}
	if err := os.Truncate(s.segPath(cut.seg), cut.off); err != nil {
		return s.fail(err)
	}
	f, err := os.OpenFile(s.segPath(cut.seg), os.O_RDWR, 0o644)
	if err != nil {
		return s.fail(err)
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return s.fail(err)
	}
	s.cur, s.curSeg, s.curSize = f, cut.seg, cut.off
	if !s.opts.NoSync {
		if err := s.cur.Sync(); err != nil {
			return s.fail(err)
		}
		if err := s.syncDir(); err != nil {
			return s.fail(err)
		}
	}
	return nil
}

// closeCur closes the open segment ahead of an operation that removes or
// rewrites segment files. Called with wmu held.
func (s *Store) closeCur() error {
	if s.cur == nil {
		return nil
	}
	err := s.cur.Close()
	s.cur = nil
	return err
}

// Block reads one persisted block back from disk (1-based height), mainly
// for tests and operational tooling; the live node keeps the chain in
// memory and never reads the store after bootstrap.
func (s *Store) Block(height uint64) (*ledger.Block, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if height <= s.base || height > s.base+uint64(len(s.index)) {
		return nil, fmt.Errorf("disk: no block at height %d (store holds %d…%d)",
			height, s.base+1, s.base+uint64(len(s.index)))
	}
	loc := s.index[height-s.base-1]
	f, err := os.Open(s.segPath(loc.seg))
	if err != nil {
		return nil, fmt.Errorf("disk: %w", err)
	}
	defer f.Close()
	buf := make([]byte, loc.n)
	if _, err := f.ReadAt(buf, loc.off); err != nil {
		return nil, fmt.Errorf("disk: %w", err)
	}
	n, b := s.parseRecord(buf, height)
	if b == nil || n != loc.n {
		return nil, fmt.Errorf("%w: record for height %d failed its checks", ErrCorrupt, height)
	}
	return b, nil
}

// Height returns the height of the store's last block (the full logical
// chain height, including the GC'd prefix below Base).
func (s *Store) Height() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.base + uint64(len(s.index))
}

// Base returns the height of the last block below the stored suffix: 0 for a
// full-history store, the last reclaimed height after checkpoint GC.
func (s *Store) Base() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.base
}

// Reanchor implements ledger.AnchorStore: it discards every persisted block
// and re-bases the store at base, so the next append must carry base+1. A
// node installing a verified checkpoint snapshot over a stale chain uses it —
// every discarded block is covered by the snapshot's state.
func (s *Store) Reanchor(base uint64) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if err := s.writable(); err != nil {
		return err
	}
	if err := s.closeCur(); err != nil {
		return s.fail(err)
	}
	return s.wipeSegments(base)
}

// wipeSegments removes every segment file and re-bases the empty store at
// base (durably, via the marker). Called with wmu held and s.cur closed.
func (s *Store) wipeSegments(base uint64) error {
	// Readers see the empty store before its files go.
	s.mu.Lock()
	segs := s.segs
	s.segs, s.index, s.base = nil, nil, base
	s.mu.Unlock()
	s.curSeg, s.curSize, s.syncedTo = 0, 0, base
	for _, idx := range segs {
		if err := os.Remove(s.segPath(idx)); err != nil {
			return s.fail(err)
		}
	}
	if err := s.writeBaseMarker(base); err != nil {
		return s.fail(err)
	}
	if !s.opts.NoSync {
		if err := s.syncDir(); err != nil {
			return s.fail(err)
		}
	}
	return nil
}

// Segments returns how many segment files the store currently spans.
func (s *Store) Segments() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.segs)
}

// Bytes returns the total on-disk size of the store's segment files — the
// quantity checkpoint GC exists to bound.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total int64
	for _, idx := range s.segs {
		if fi, err := os.Stat(s.segPath(idx)); err == nil {
			total += fi.Size()
		}
	}
	return total
}

// ReclaimBelow is checkpoint garbage collection: it removes leading segments
// every one of whose blocks sits at or below height — blocks now covered by a
// durable state snapshot — and advances the store's base past them, always
// leaving at least keep segments (minimum 1: the open segment is never
// removed, so an append never races a reclaim of its own file). Reclaim is
// whole-segment, so the retained suffix always starts exactly where a
// surviving segment header says it does and reopening after GC serves only
// the suffix. It returns the number of segments and bytes reclaimed.
func (s *Store) ReclaimBelow(height uint64, keep int) (int, int64, error) {
	if keep < 1 {
		keep = 1
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if err := s.writable(); err != nil {
		return 0, 0, err
	}
	// Plan: leading whole segments whose last block is ≤ height, never the
	// open segment, never below the retention floor. wmu keeps the plan valid
	// after mu is released: no other writer can move segs, index or base.
	s.mu.Lock()
	nseg, drop := 0, uint64(0)
	for len(s.segs)-nseg > keep {
		segIdx := s.segs[nseg]
		cnt := uint64(0)
		for int(drop+cnt) < len(s.index) && s.index[drop+cnt].seg == segIdx {
			cnt++
		}
		if cnt == 0 || s.base+drop+cnt > height {
			break // segment reaches above the checkpoint: keep it whole
		}
		nseg++
		drop += cnt
	}
	newBase, doomed := s.base+drop, s.segs[:nseg]
	s.mu.Unlock()
	if nseg == 0 {
		return 0, 0, nil
	}
	// Durably advance the base marker first: a crash after the marker but
	// before (or during) the removals leaves whole sub-base segments, which
	// recovery recognizes as an interrupted GC and finishes deleting.
	if err := s.writeBaseMarker(newBase); err != nil {
		return 0, 0, s.fail(err)
	}
	// Readers stop seeing the reclaimed blocks before their files go.
	s.mu.Lock()
	s.base = newBase
	s.index = s.index[drop:]
	s.segs = s.segs[nseg:]
	s.mu.Unlock()
	var bytes int64
	for i, idx := range doomed {
		path := s.segPath(idx)
		if fi, err := os.Stat(path); err == nil {
			bytes += fi.Size()
		}
		if err := os.Remove(path); err != nil {
			return i, bytes, s.fail(err)
		}
	}
	if !s.opts.NoSync {
		if err := s.syncDir(); err != nil {
			return nseg, bytes, s.fail(err)
		}
	}
	return nseg, bytes, nil
}

// SyncStats returns how many commit fsyncs the store has issued since Open
// and how many blocks those made durable. Blocks per sync is the coalescing
// factor: 1 when every block pays its own fsync, higher when AppendBatch
// callers (the ledger's persister, catch-up) cover several with one.
func (s *Store) SyncStats() (syncs, blocks uint64) {
	return s.syncs.Load(), s.syncedBlocks.Load()
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Recovered reports what Open repaired (zero values: a clean open).
func (s *Store) Recovered() RecoveryStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovered
}

// Err returns the sticky write failure, if any; a store with a non-nil Err
// refuses all further writes.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close flushes and closes the store. Idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	if s.flushQuit != nil {
		close(s.flushQuit)
		<-s.flushDone
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	var first error
	if s.cur != nil {
		if !s.opts.NoSync {
			first = s.cur.Sync()
		}
		if err := s.closeCur(); err != nil && first == nil {
			first = err
		}
	}
	unlockDir(s.lock)
	s.lock = nil
	if first != nil {
		return fmt.Errorf("disk: %w", first)
	}
	return nil
}

// syncDir fsyncs the directory so segment creation and removal survive a
// machine crash (file data alone is not enough: the directory entry itself
// must reach stable storage).
func (s *Store) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
