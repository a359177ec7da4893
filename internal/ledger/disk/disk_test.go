package disk_test

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"resilientdb/internal/core"
	"resilientdb/internal/ledger"
	"resilientdb/internal/ledger/disk"
	"resilientdb/internal/pbft"
	"resilientdb/internal/types"
)

// makeBlocks builds a certified z=2 chain of n blocks through the real
// ledger append path, so heights, rounds, and hash links are exactly what
// consensus execution would produce. Certificates carry placeholder
// signatures: the store never verifies them (bootstrap does, at a layer
// above), and these tests exercise the store.
func makeBlocks(n int) []*ledger.Block {
	const z = 2
	l := ledger.New()
	for h := 1; h <= n; h++ {
		round := uint64((h-1)/z + 1)
		cluster := types.ClusterID((h - 1) % z)
		b := types.Batch{
			Client: types.ClientIDBase + types.NodeID(cluster),
			Seq:    round,
			Txns: []types.Transaction{
				{Key: uint64(h), Value: uint64(h * 7)},
				{Key: uint64(h) << 8, Value: uint64(h * 13)},
			},
		}
		b.PrimeDigest()
		l.AppendCertified(round, cluster, b, &pbft.Certificate{
			View: 1, Seq: round, Digest: b.Digest(), Batch: b,
			Signers: []types.NodeID{0, 1, 2},
			Sigs:    [][]byte{{1}, {2}, {3}},
		})
	}
	return l.Export(1, 0)
}

func mustOpen(t *testing.T, dir string, opts disk.Options) (*disk.Store, []*ledger.Block) {
	t.Helper()
	st, blocks, err := disk.Open(dir, core.BlockCodec{}, opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return st, blocks
}

func appendAll(t *testing.T, st *disk.Store, blocks []*ledger.Block) {
	t.Helper()
	for _, b := range blocks {
		if err := st.Append(b); err != nil {
			t.Fatalf("append height %d: %v", b.Height, err)
		}
	}
}

// headOf imports blocks into a fresh ledger and returns its head, the
// canonical way to compare a recovered chain against its source (persisted
// blocks carry no Prev/Hash; Import re-derives them).
func headOf(t *testing.T, blocks []*ledger.Block) types.Digest {
	t.Helper()
	l := ledger.New()
	if err := l.Import(blocks, nil); err != nil {
		t.Fatalf("recovered chain does not import: %v", err)
	}
	if err := l.Verify(); err != nil {
		t.Fatalf("recovered chain does not verify: %v", err)
	}
	return l.Head()
}

func TestAppendReopen(t *testing.T) {
	dir := t.TempDir()
	src := makeBlocks(40)
	wantHead := headOf(t, src)

	st, got := mustOpen(t, dir, disk.Options{SegmentBytes: 512})
	if len(got) != 0 {
		t.Fatalf("fresh store recovered %d blocks", len(got))
	}
	appendAll(t, st, src)
	if st.Segments() < 2 {
		t.Fatalf("40 blocks in %d segment(s); want rolling at 512 bytes", st.Segments())
	}
	// Random read-back while open.
	b, err := st.Block(17)
	if err != nil || b.Height != 17 || b.BatchDigest != src[16].BatchDigest {
		t.Fatalf("Block(17) = %+v, %v", b, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}

	st2, got := mustOpen(t, dir, disk.Options{SegmentBytes: 512})
	defer st2.Close()
	if len(got) != len(src) {
		t.Fatalf("recovered %d blocks, want %d", len(got), len(src))
	}
	if h := headOf(t, got); h != wantHead {
		t.Fatalf("recovered head %s, want %s", h.Short(), wantHead.Short())
	}
	if s := st2.Recovered(); s.TruncatedBytes != 0 || s.RemovedSegments != 0 {
		t.Fatalf("clean reopen reported repairs: %+v", s)
	}
	// Appends continue at the right height after reopen.
	more := makeBlocks(42)
	if err := st2.Append(more[40]); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
}

func TestAppendRejectsBadBlocks(t *testing.T) {
	st, _ := mustOpen(t, t.TempDir(), disk.Options{NoSync: true})
	defer st.Close()
	src := makeBlocks(3)
	if err := st.Append(src[1]); err == nil {
		t.Fatal("accepted height 2 on an empty store")
	}
	uncert := *src[0]
	uncert.Cert = nil
	if err := st.Append(&uncert); err == nil {
		t.Fatal("accepted a block without a certificate")
	}
	appendAll(t, st, src)
	if err := st.Append(src[2]); err == nil {
		t.Fatal("accepted a duplicate height")
	}
}

func TestLedgerPersistsThroughStore(t *testing.T) {
	dir := t.TempDir()
	st, _ := mustOpen(t, dir, disk.Options{})
	l := ledger.New()
	l.SetStore(st)
	src := makeBlocks(8)
	for _, b := range src {
		l.AppendCertified(b.Round, b.Cluster, b.Batch, b.Cert)
	}
	if l.StoreErr() != nil {
		t.Fatalf("store error: %v", l.StoreErr())
	}
	if st.Height() != 8 {
		t.Fatalf("store holds %d blocks, want 8", st.Height())
	}
	// A digest-only append (no certificate) cannot be persisted and must
	// end durability loudly — detach + StoreErr — not silently desync the
	// store's height; the chain itself keeps accepting blocks.
	l.Append(5, 0, src[0].Batch, types.Hash([]byte("x")))
	if l.StoreErr() == nil {
		t.Fatal("uncertified append with a store attached reported no error")
	}
	if st.Height() != 8 {
		t.Fatalf("store holds %d blocks after detach, want 8", st.Height())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Persistence failure (store closed) also detaches the backend and
	// surfaces through StoreErr; consensus must not halt on disk failure.
	l2 := ledger.New()
	l2.SetStore(st)
	l2.AppendCertified(1, 0, src[0].Batch, src[0].Cert)
	if l2.StoreErr() == nil {
		t.Fatal("append to a closed store reported no error")
	}
	if l2.Height() != 1 {
		t.Fatalf("ledger height %d, want 1 (consensus must not halt on disk failure)", l2.Height())
	}

	st2, got := mustOpen(t, dir, disk.Options{})
	defer st2.Close()
	if len(got) != 8 {
		t.Fatalf("recovered %d blocks, want the 8 certified ones", len(got))
	}
}

// TestImportPersistsBatched drives the catch-up persistence path: a verified
// range imported into a store-attached ledger reaches the disk through
// AppendBatch (one durability barrier per chunk) and survives reopen.
func TestImportPersistsBatched(t *testing.T) {
	dir := t.TempDir()
	st, _ := mustOpen(t, dir, disk.Options{})
	l := ledger.New()
	l.SetStore(st)
	src := makeBlocks(16)
	if err := l.Import(src[:8], nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Import(src[8:], nil); err != nil {
		t.Fatal(err)
	}
	if l.StoreErr() != nil {
		t.Fatalf("store error: %v", l.StoreErr())
	}
	if st.Height() != 16 {
		t.Fatalf("store holds %d blocks after imports, want 16", st.Height())
	}
	st.Close()
	st2, got := mustOpen(t, dir, disk.Options{})
	defer st2.Close()
	if len(got) != 16 {
		t.Fatalf("recovered %d blocks, want 16", len(got))
	}
	headOf(t, got)
}

// TestWrongFirstHeightFails pins the repair/refuse boundary: a last segment
// whose header is intact but whose first height does not continue the chain
// holds real records that no crash shape can explain — recovery must refuse
// to destroy them, not "repair" by deletion.
func TestWrongFirstHeightFails(t *testing.T) {
	dir := t.TempDir()
	src := makeBlocks(24)
	st, _ := mustOpen(t, dir, disk.Options{SegmentBytes: 600, NoSync: true})
	appendAll(t, st, src)
	st.Close()
	p := lastSegment(t, dir)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data[15] ^= 0x20 // corrupt the header's first-height field only
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = disk.Open(dir, core.BlockCodec{}, disk.Options{NoSync: true})
	if !errors.Is(err, disk.ErrCorrupt) {
		t.Fatalf("open over a height-discontinuous segment: err=%v, want ErrCorrupt", err)
	}
	if _, statErr := os.Stat(p); statErr != nil {
		t.Fatalf("refusing open must not delete the segment: %v", statErr)
	}
}

// TestOpenLocksDirectory pins the double-open guard: a second Open of a
// live store directory must fail fast instead of interleaving appends into
// the same segment files.
func TestOpenLocksDirectory(t *testing.T) {
	switch runtime.GOOS {
	case "windows", "plan9", "js", "wasip1":
		t.Skip("flock-based store locking is unix-only")
	}
	dir := t.TempDir()
	st, _ := mustOpen(t, dir, disk.Options{NoSync: true})
	if _, _, err := disk.Open(dir, core.BlockCodec{}, disk.Options{NoSync: true}); err == nil {
		t.Fatal("second Open of a locked store directory succeeded")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, _ := mustOpen(t, dir, disk.Options{NoSync: true}) // lock released on Close
	st2.Close()
}

// lastSegment returns the path of the newest segment file in dir.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.rdb"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s: %v", dir, err)
	}
	sort.Strings(segs)
	return segs[len(segs)-1]
}

// copyDir clones a store directory so each torn-tail case starts from the
// same pristine bytes.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTornTailEveryOffset cuts the newest segment at every byte offset —
// every possible shape of a crash mid-write — and requires recovery to hand
// back a clean, importable prefix, repair the file, and accept new appends.
func TestTornTailEveryOffset(t *testing.T) {
	golden := t.TempDir()
	src := makeBlocks(24)
	st, _ := mustOpen(t, golden, disk.Options{SegmentBytes: 600, NoSync: true})
	appendAll(t, st, src)
	segCount := st.Segments()
	if segCount < 2 {
		t.Fatalf("want ≥ 2 segments, got %d", segCount)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	lastPath := lastSegment(t, golden)
	lastData, err := os.ReadFile(lastPath)
	if err != nil {
		t.Fatal(err)
	}
	// Blocks in sealed segments survive any tear of the last one; count them
	// by opening a copy with the last segment dropped entirely.
	probe := t.TempDir()
	copyDir(t, golden, probe)
	os.Remove(filepath.Join(probe, filepath.Base(lastPath)))
	stProbe, beforeLast := mustOpen(t, probe, disk.Options{SegmentBytes: 600, NoSync: true})
	stProbe.Close()
	sealed := len(beforeLast)

	for cut := len(lastData) - 1; cut >= 0; cut-- {
		dir := t.TempDir()
		copyDir(t, golden, dir)
		if err := os.Truncate(filepath.Join(dir, filepath.Base(lastPath)), int64(cut)); err != nil {
			t.Fatal(err)
		}
		st, got := mustOpen(t, dir, disk.Options{SegmentBytes: 600, NoSync: true})
		if len(got) >= len(src) || len(got) < sealed {
			t.Fatalf("cut at %d: recovered %d blocks, want [%d, %d)", cut, len(got), sealed, len(src))
		}
		headOf(t, got) // prefix must import and verify
		// The store must keep working where recovery left it.
		if err := st.Append(src[len(got)]); err != nil {
			t.Fatalf("cut at %d: append after recovery: %v", cut, err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st2, again := mustOpen(t, dir, disk.Options{SegmentBytes: 600, NoSync: true})
		if len(again) != len(got)+1 {
			t.Fatalf("cut at %d: reopen found %d blocks, want %d", cut, len(again), len(got)+1)
		}
		st2.Close()
	}
}

// TestCorruptionHandling flips bytes and asserts the recovery contract:
// damage in the newest segment is repaired as a torn tail; damage in a
// sealed segment — a shape no crash can produce — fails cleanly with
// ErrCorrupt. Neither path may panic or serve a damaged block.
func TestCorruptionHandling(t *testing.T) {
	golden := t.TempDir()
	src := makeBlocks(24)
	st, _ := mustOpen(t, golden, disk.Options{SegmentBytes: 600, NoSync: true})
	appendAll(t, st, src)
	st.Close()

	segs, _ := filepath.Glob(filepath.Join(golden, "seg-*.rdb"))
	sort.Strings(segs)
	first, last := segs[0], segs[len(segs)-1]

	t.Run("sealed segment", func(t *testing.T) {
		dir := t.TempDir()
		copyDir(t, golden, dir)
		p := filepath.Join(dir, filepath.Base(first))
		data, _ := os.ReadFile(p)
		data[len(data)/2] ^= 0xff
		os.WriteFile(p, data, 0o644)
		_, _, err := disk.Open(dir, core.BlockCodec{}, disk.Options{NoSync: true})
		if !errors.Is(err, disk.ErrCorrupt) {
			t.Fatalf("open over a corrupt sealed segment: err=%v, want ErrCorrupt", err)
		}
	})
	t.Run("missing segment", func(t *testing.T) {
		dir := t.TempDir()
		copyDir(t, golden, dir)
		os.Remove(filepath.Join(dir, filepath.Base(first)))
		_, _, err := disk.Open(dir, core.BlockCodec{}, disk.Options{NoSync: true})
		if !errors.Is(err, disk.ErrCorrupt) {
			t.Fatalf("open with a missing segment: err=%v, want ErrCorrupt", err)
		}
	})
	t.Run("newest segment", func(t *testing.T) {
		dir := t.TempDir()
		copyDir(t, golden, dir)
		p := filepath.Join(dir, filepath.Base(last))
		data, _ := os.ReadFile(p)
		data[len(data)/2] ^= 0xff
		os.WriteFile(p, data, 0o644)
		st, got := mustOpen(t, dir, disk.Options{NoSync: true})
		defer st.Close()
		if len(got) >= len(src) {
			t.Fatalf("recovered %d blocks through a corrupt record", len(got))
		}
		headOf(t, got)
		if st.Recovered().TruncatedBytes == 0 {
			t.Fatal("repair not reported")
		}
	})
	t.Run("torn header", func(t *testing.T) {
		dir := t.TempDir()
		copyDir(t, golden, dir)
		os.Truncate(filepath.Join(dir, filepath.Base(last)), 7)
		st, got := mustOpen(t, dir, disk.Options{NoSync: true})
		defer st.Close()
		if st.Recovered().RemovedSegments != 1 {
			t.Fatalf("torn-header segment not removed: %+v", st.Recovered())
		}
		headOf(t, got)
	})
}

func TestTruncate(t *testing.T) {
	dir := t.TempDir()
	src := makeBlocks(20)
	st, _ := mustOpen(t, dir, disk.Options{SegmentBytes: 600, NoSync: true})
	appendAll(t, st, src)
	if err := st.Truncate(7); err != nil {
		t.Fatal(err)
	}
	if st.Height() != 7 {
		t.Fatalf("height after truncate = %d, want 7", st.Height())
	}
	if err := st.Append(src[7]); err != nil {
		t.Fatalf("append height 8 after truncate: %v", err)
	}
	st.Close()
	st2, got := mustOpen(t, dir, disk.Options{SegmentBytes: 600, NoSync: true})
	if len(got) != 8 {
		t.Fatalf("reopen after truncate found %d blocks, want 8", len(got))
	}
	headOf(t, got)
	if err := st2.Truncate(0); err != nil {
		t.Fatal(err)
	}
	if st2.Height() != 0 || st2.Segments() != 0 {
		t.Fatalf("Truncate(0) left height=%d segments=%d", st2.Height(), st2.Segments())
	}
	if err := st2.Append(src[0]); err != nil {
		t.Fatalf("append height 1 after full truncate: %v", err)
	}
	st2.Close()
	st3, got := mustOpen(t, dir, disk.Options{NoSync: true})
	defer st3.Close()
	if len(got) != 1 {
		t.Fatalf("reopen after wipe found %d blocks, want 1", len(got))
	}
}

func TestGroupCommit(t *testing.T) {
	dir := t.TempDir()
	src := makeBlocks(30)
	st, _ := mustOpen(t, dir, disk.Options{GroupCommit: 2 * time.Millisecond})
	appendAll(t, st, src)
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, got := mustOpen(t, dir, disk.Options{GroupCommit: 2 * time.Millisecond})
	defer st2.Close()
	if len(got) != len(src) {
		t.Fatalf("group-commit store recovered %d blocks, want %d", len(got), len(src))
	}
	headOf(t, got)
}

// FuzzDiskRecovery mutates a store's files — truncations, bit flips, removed
// segments, appended garbage — and asserts the recovery contract: Open never
// panics, and it either fails cleanly or returns a structurally sound prefix
// whose repair is convergent (a second Open agrees) and which the ledger
// either imports verifiably or rejects without mutation.
func FuzzDiskRecovery(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 10})                   // truncate newest segment
	f.Add([]byte{1, 0, 100})                  // flip a byte mid-file
	f.Add([]byte{2, 1, 0})                    // remove a segment
	f.Add([]byte{3, 0, 7})                    // append garbage
	f.Add([]byte{1, 0, 20, 0, 1, 5, 3, 1, 9}) // compound damage
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		src := makeBlocks(12)
		st, _, err := disk.Open(dir, core.BlockCodec{}, disk.Options{SegmentBytes: 300, NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range src {
			if err := st.Append(b); err != nil {
				t.Fatal(err)
			}
		}
		st.Close()
		segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.rdb"))
		sort.Strings(segs)

		for i := 0; i+2 < len(data) && i < 30; i += 3 {
			if len(segs) == 0 {
				break
			}
			p := segs[int(data[i+1])%len(segs)]
			arg := int(data[i+2])
			raw, err := os.ReadFile(p)
			if err != nil {
				continue
			}
			switch data[i] % 4 {
			case 0: // truncate
				if len(raw) > 0 {
					os.Truncate(p, int64(arg%len(raw)))
				}
			case 1: // bit flip
				if len(raw) > 0 {
					raw[arg*37%len(raw)] ^= byte(arg%255 + 1)
					os.WriteFile(p, raw, 0o644)
				}
			case 2: // remove segment
				os.Remove(p)
			case 3: // append garbage
				g := make([]byte, arg%19+1)
				for j := range g {
					g[j] = byte(arg + j)
				}
				os.WriteFile(p, append(raw, g...), 0o644)
			}
		}

		st1, got, err := disk.Open(dir, core.BlockCodec{}, disk.Options{NoSync: true})
		if err != nil {
			return // failed cleanly
		}
		for i, b := range got {
			if b == nil || b.Height != uint64(i+1) || b.Cert == nil {
				t.Fatalf("recovered block %d is structurally unsound: %+v", i, b)
			}
		}
		h1 := st1.Height()
		st1.Close()

		// Repair must be convergent: a second open sees a clean store.
		st2, again, err := disk.Open(dir, core.BlockCodec{}, disk.Options{NoSync: true})
		if err != nil {
			t.Fatalf("reopen after repair failed: %v", err)
		}
		if st2.Height() != h1 || uint64(len(again)) != h1 {
			t.Fatalf("repair not convergent: first open %d blocks, second %d", h1, len(again))
		}
		st2.Close()

		// The ledger is the next gate: it must import the prefix verifiably
		// or reject it without mutation — never accept damage.
		l := ledger.New()
		if err := l.Import(got, func(b *ledger.Block) error {
			if b.Cert == nil {
				return errors.New("no certificate")
			}
			return nil
		}); err == nil {
			if err := l.Verify(); err != nil {
				t.Fatalf("imported recovered chain does not verify: %v", err)
			}
		} else if l.Height() != 0 {
			t.Fatalf("rejected import mutated the ledger to height %d", l.Height())
		}
	})
}

// TestSyncStats pins the coalescing counters: a commit fsync is counted once
// per Append or AppendBatch call however many blocks it covers, and not at
// all when the store does not fsync on commit.
func TestSyncStats(t *testing.T) {
	src := makeBlocks(16)
	st, _ := mustOpen(t, t.TempDir(), disk.Options{})
	defer st.Close()
	appendAll(t, st, src[:3])
	if err := st.AppendBatch(src[3:13]); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendBatch(src[13:]); err != nil {
		t.Fatal(err)
	}
	if syncs, blocks := st.SyncStats(); syncs != 5 || blocks != 16 {
		t.Fatalf("SyncStats = %d syncs, %d blocks; want 5 and 16", syncs, blocks)
	}

	ns, _ := mustOpen(t, t.TempDir(), disk.Options{NoSync: true})
	defer ns.Close()
	appendAll(t, ns, src)
	if syncs, blocks := ns.SyncStats(); syncs != 0 || blocks != 0 {
		t.Fatalf("nosync SyncStats = %d, %d; want zeros", syncs, blocks)
	}
}

// TestReadersRaceSyncedAppends hammers the accessors the node's stats
// sampler, RPC block reads and catch-up use while the single writer appends
// with real fsyncs and checkpoint GC reclaims under it (run under -race).
// None of them takes the writer's lock, so none waits for the disk; what they
// return must stay coherent.
func TestReadersRaceSyncedAppends(t *testing.T) {
	st, _ := mustOpen(t, t.TempDir(), disk.Options{SegmentBytes: 2048})
	defer st.Close()
	src := makeBlocks(300)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				h, base := st.Height(), st.Base()
				if h > base {
					if b, err := st.Block(h); err == nil && b.BatchDigest != src[h-1].BatchDigest {
						t.Errorf("Block(%d) returned another block", h)
						return
					} else if errors.Is(err, disk.ErrCorrupt) {
						t.Errorf("Block(%d) racing the writer: %v", h, err)
						return
					}
				}
				if st.Bytes() < 0 || st.Segments() < 0 || st.Err() != nil {
					t.Errorf("store unhealthy mid-append: %v", st.Err())
					return
				}
				st.SyncStats()
			}
		}()
	}
	for i := 0; i < len(src); i += 3 {
		if err := st.AppendBatch(src[i : i+3]); err != nil {
			t.Fatalf("append batch at %d: %v", i, err)
		}
		if i%60 == 57 {
			if _, _, err := st.ReclaimBelow(uint64(i)-10, 2); err != nil {
				t.Fatalf("reclaim: %v", err)
			}
		}
	}
	close(stop)
	wg.Wait()
	if syncs, blocks := st.SyncStats(); syncs != 100 || blocks != 300 {
		t.Fatalf("SyncStats = %d syncs, %d blocks; want 100 and 300", syncs, blocks)
	}
}
