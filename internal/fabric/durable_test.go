package fabric

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"resilientdb/internal/config"
	"resilientdb/internal/core"
	"resilientdb/internal/ledger"
	"resilientdb/internal/ledger/disk"
	"resilientdb/internal/proto"
	"resilientdb/internal/transport"
	"resilientdb/internal/types"
)

// These tests cover the durability stage from the outside: what a replica
// told its clients against what its disk held at that instant, what a dying
// disk does to a running node, and what a stop under load leaves behind.
// They reach the store a node's persister writes to through testWrapStore.

// wrapStoreFor installs a testWrapStore that wraps only node id's backend.
func wrapStoreFor(t *testing.T, id types.NodeID, wrap func(*disk.Store) ledger.Store) {
	t.Helper()
	testWrapStore = func(n types.NodeID, st *disk.Store) ledger.Store {
		if n != id {
			return st
		}
		return wrap(st)
	}
	t.Cleanup(func() { testWrapStore = nil })
}

func durableConfig(dir string, tr transport.Transport) Config {
	return Config{
		Topo:          config.NewTopology(2, 4),
		Records:       256,
		LocalTimeout:  2 * time.Second,
		RemoteTimeout: 3 * time.Second,
		DataDir:       dir,
		Transport:     tr,
	}
}

// load starts that many closed-loop clients. The returned func ends the
// load — closing the clients, so a submit the fabric will never answer
// returns — and reports how many batches were confirmed.
func load(f *Fabric, clients int) (stop func() uint64) {
	var wg sync.WaitGroup
	var confirmed atomic.Uint64
	quit := make(chan struct{})
	cls := make([]*Client, clients)
	for ci := range cls {
		cls[ci] = f.NewClient(ci)
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for b := uint64(0); ; b++ {
				select {
				case <-quit:
					return
				default:
				}
				txns := []types.Transaction{{Key: uint64(ci)<<20 | b, Value: b}}
				if cls[ci].Submit(txns, 20*time.Second) == nil {
					confirmed.Add(1)
				}
			}
		}(ci)
	}
	return func() uint64 {
		close(quit)
		for _, cl := range cls {
			cl.Close()
		}
		wg.Wait()
		return confirmed.Load()
	}
}

// syncRecorder sits between one node's persister and its disk store. Every
// time a store call returns — the fsync has returned — it records, under
// the same lock the reply recorder uses, the height now durable and the
// length of every segment file: exactly what a machine crash at that instant
// would leave behind.
type syncRecorder struct {
	st *disk.Store

	mu     sync.Mutex
	synced uint64           // height covered by the last fsync that returned
	sizes  map[string]int64 // segment file → length at that fsync
	acks   []ack            // replies the node sent, with synced as of the send
}

type ack struct {
	client types.NodeID
	seq    uint64
	synced uint64
}

func (r *syncRecorder) Append(b *ledger.Block) error {
	return r.note(b.Height, r.st.Append(b))
}

func (r *syncRecorder) AppendBatch(blocks []*ledger.Block) error {
	return r.note(blocks[len(blocks)-1].Height, r.st.AppendBatch(blocks))
}

func (r *syncRecorder) Reanchor(base uint64) error { return r.st.Reanchor(base) }

func (r *syncRecorder) note(height uint64, err error) error {
	if err != nil {
		return err
	}
	sizes := make(map[string]int64)
	segs, _ := filepath.Glob(filepath.Join(r.st.Dir(), "seg-*.rdb"))
	for _, p := range segs {
		if fi, err := os.Stat(p); err == nil {
			sizes[p] = fi.Size()
		}
	}
	r.mu.Lock()
	r.synced, r.sizes = height, sizes
	r.mu.Unlock()
	return nil
}

// TestReplyImpliesDurable is the property the stage must keep: a replica
// acknowledges a batch only after the block holding it is fsynced on that
// replica. Checked two ways on one replica under pipelined load. Online:
// every reply it sends is stamped with the durable height at the moment of
// the send, and the batch's block must be at or below it. By crash: at an
// instant mid-load the replies sent so far and the segment lengths as of the
// last returned fsync are captured together; after the run the replica's
// segments are cut back to those lengths (everything written after that
// fsync is discarded, as a machine crash may), the store is reopened, the
// node restarted on it alone, and every captured acknowledgement must be in
// the prefix that re-verifies through Bootstrap.
func TestReplyImpliesDurable(t *testing.T) {
	dir := t.TempDir()
	topo := config.NewTopology(2, 4)
	victim := topo.ReplicaID(0, 1)
	rec := &syncRecorder{}
	wrapStoreFor(t, victim, func(st *disk.Store) ledger.Store { rec.st = st; return rec })
	tap := transport.NewTap(transport.NewMem(), func(from, to types.NodeID, msg types.Message) ([]transport.Delivery, bool) {
		if rep, ok := msg.(*proto.Reply); ok && from == victim {
			rec.mu.Lock()
			rec.acks = append(rec.acks, ack{rep.Client, rep.ClientSeq, rec.synced})
			rec.mu.Unlock()
		}
		return nil, false
	})
	f, err := Open(durableConfig(dir, tap))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	stopLoad := load(f, 16)

	// The crash instant: far enough in that fsyncs have coalesced rounds.
	var crashAcks []ack
	var crashSizes map[string]int64
	deadline := time.Now().Add(30 * time.Second)
	for {
		rec.mu.Lock()
		if len(rec.acks) >= 150 || time.Now().After(deadline) {
			crashAcks = append(crashAcks, rec.acks...)
			crashSizes = rec.sizes
			rec.mu.Unlock()
			break
		}
		rec.mu.Unlock()
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond) // keep writing past the crash instant
	if stopLoad() == 0 {
		t.Fatal("no batch was confirmed")
	}
	f.Stop()
	if len(crashAcks) < 150 {
		t.Fatalf("only %d replies from the observed replica before the deadline", len(crashAcks))
	}
	l := f.Replica(victim).Ledger()
	if err := l.StoreErr(); err != nil {
		t.Fatalf("store error: %v", err)
	}

	// Online check: where is each acknowledged batch, and was that height
	// durable when the acknowledgement left?
	heightOf := make(map[[2]uint64]uint64)
	for _, b := range l.Export(1, 0) {
		heightOf[[2]uint64{uint64(b.Batch.Client), b.Batch.Seq}] = b.Height
	}
	rec.mu.Lock()
	acks := rec.acks
	rec.mu.Unlock()
	for _, a := range acks {
		h, ok := heightOf[[2]uint64{uint64(a.client), a.seq}]
		if !ok {
			t.Fatalf("replied to client %v seq %d, which is not in the ledger", a.client, a.seq)
		}
		if h > a.synced {
			t.Fatalf("replied to client %v seq %d (block %d) with only %d blocks durable", a.client, a.seq, h, a.synced)
		}
	}
	if syncs, blocks := f.Stats().Snapshots.DiskSyncs, f.Stats().Snapshots.DiskSyncedBlocks; syncs == 0 || blocks < syncs {
		t.Fatalf("sync counters: %d fsyncs for %d blocks", syncs, blocks)
	} else {
		t.Logf("%d replies checked; deployment-wide %d blocks over %d fsyncs (%.2f blocks/fsync)",
			len(acks), blocks, syncs, float64(blocks)/float64(syncs))
	}

	// Crash check: discard everything the victim wrote after the captured
	// fsync.
	victimDir := f.nodeDir(victim)
	segs, _ := filepath.Glob(filepath.Join(victimDir, "seg-*.rdb"))
	for _, p := range segs {
		size, kept := crashSizes[p]
		if !kept {
			if err := os.Remove(p); err != nil {
				t.Fatal(err)
			}
		} else if err := os.Truncate(p, size); err != nil {
			t.Fatal(err)
		}
	}
	st, blocks, err := disk.Open(victimDir, core.BlockCodec{}, disk.Options{})
	if err != nil {
		t.Fatalf("reopen after the simulated crash: %v", err)
	}
	if rs := st.Recovered(); rs.TruncatedBytes != 0 || rs.RemovedSegments != 0 {
		t.Errorf("the synced prefix needed repair (%+v): an fsync returned mid-record", rs)
	}
	st.Close()
	recovered := make(map[[2]uint64]bool)
	for _, b := range blocks {
		recovered[[2]uint64{uint64(b.Batch.Client), b.Batch.Seq}] = true
	}
	for _, a := range crashAcks {
		if !recovered[[2]uint64{uint64(a.client), a.seq}] {
			t.Fatalf("client %v seq %d was acknowledged before the crash and is not in the %d recovered blocks", a.client, a.seq, len(blocks))
		}
	}
	if len(blocks) == int(l.Height()) {
		t.Fatalf("the crash discarded nothing (%d blocks): the check has no teeth", len(blocks))
	}

	// The recovered prefix must re-verify: restart the victim alone on it.
	testWrapStore = nil
	cfg := durableConfig(dir, transport.NewMem())
	cfg.Local = []types.NodeID{victim}
	f2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Stop()
	l2 := f2.Replica(victim).Ledger()
	for start := time.Now(); !l2.Persisting(); time.Sleep(time.Millisecond) {
		if time.Since(start) > 10*time.Second {
			t.Fatal("the restarted node never finished its disk bootstrap")
		}
	}
	if l2.Height() != uint64(len(blocks)) || l2.Verify() != nil {
		t.Fatalf("bootstrap accepted %d of %d recovered blocks (verify: %v)", l2.Height(), len(blocks), l2.Verify())
	}
	if rej := f2.Stats().VerifyReject; rej != 0 {
		t.Fatalf("%d verify rejections bootstrapping the recovered prefix", rej)
	}
	if !l2.PrefixOf(l) {
		t.Fatal("the recovered chain is not a prefix of the chain the node had executed")
	}
}

// failingStore passes blocks through until its budget runs out, then fails
// like a full disk.
type failingStore struct {
	st     *disk.Store
	budget atomic.Int64
	fails  atomic.Int64
}

func (s *failingStore) Append(b *ledger.Block) error { return s.AppendBatch([]*ledger.Block{b}) }

func (s *failingStore) AppendBatch(blocks []*ledger.Block) error {
	if s.budget.Add(-int64(len(blocks))) < 0 {
		s.fails.Add(1)
		return errors.New("no space left on device")
	}
	return s.st.AppendBatch(blocks)
}

// TestStoreFailureUnderLoad: one replica's disk fills mid-run. Its ledger
// detaches (StoreErr, counted in Stats), nothing more is written, the
// replies it was holding are released and it keeps acknowledging —
// consensus never halts on a full disk — and Stop returns with no persister
// goroutine left behind.
func TestStoreFailureUnderLoad(t *testing.T) {
	topo := config.NewTopology(2, 4)
	victim := topo.ReplicaID(1, 2)
	fs := &failingStore{}
	fs.budget.Store(40)
	wrapStoreFor(t, victim, func(st *disk.Store) ledger.Store { fs.st = st; return fs })
	var victimReplies atomic.Uint64
	tap := transport.NewTap(transport.NewMem(), func(from, to types.NodeID, msg types.Message) ([]transport.Delivery, bool) {
		if _, ok := msg.(*proto.Reply); ok && from == victim && fs.fails.Load() > 0 {
			victimReplies.Add(1)
		}
		return nil, false
	})
	f, err := Open(durableConfig(t.TempDir(), tap))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	stopLoad := load(f, 8)
	l := f.Replica(victim).Ledger()
	deadline := time.Now().Add(30 * time.Second)
	for l.StoreErr() == nil || victimReplies.Load() < 20 {
		if time.Now().After(deadline) {
			t.Fatalf("storeErr=%v, %d replies from the detached replica", l.StoreErr(), victimReplies.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := f.Stats().Snapshots.StoreErrs; got != 1 {
		t.Fatalf("Stats reports %d store errors, want 1", got)
	}
	stopLoad()
	f.Stop()
	if n := fs.fails.Load(); n != 1 {
		t.Fatalf("the store was called %d times after it failed; a detached store must be left alone", n-1)
	}
	if h := l.Height(); h <= l.DurableHeight() || l.DurableHeight() > 40 {
		t.Fatalf("height %d, durable height %d: the chain must outgrow a dead disk's 40 blocks", h, l.DurableHeight())
	}
	for _, id := range topo.AllReplicas() {
		if id != victim {
			if err := f.Replica(id).Ledger().StoreErr(); err != nil {
				t.Errorf("replica %v: %v", id, err)
			}
		}
	}
	buf := make([]byte, 4<<20)
	if stacks := string(buf[:runtime.Stack(buf, true)]); strings.Contains(stacks, "(*Ledger).persist(") {
		t.Fatalf("a persister goroutine outlived Fabric.Stop:\n%s", stacks)
	}
}

// TestStopUnderLoadDrainsQueue: a clean Stop with requests in flight leaves
// every replica's store holding exactly its ledger — the persister writes
// out its queue before the store closes.
func TestStopUnderLoadDrainsQueue(t *testing.T) {
	dir := t.TempDir()
	f, err := Open(durableConfig(dir, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	stopLoad := load(f, 16)
	topo := config.NewTopology(2, 4)
	ref := f.Replica(topo.ReplicaID(0, 0)).Ledger()
	for start := time.Now(); ref.Height() < 200; time.Sleep(5 * time.Millisecond) {
		if time.Since(start) > 30*time.Second {
			t.Fatalf("only %d blocks executed", ref.Height())
		}
	}
	f.Stop() // clients are still submitting
	stopLoad()
	for _, id := range topo.AllReplicas() {
		l := f.Replica(id).Ledger()
		if err := l.StoreErr(); err != nil {
			t.Fatalf("replica %v: %v", id, err)
		}
		st, blocks, err := disk.Open(f.nodeDir(id), core.BlockCodec{}, disk.Options{})
		if err != nil {
			t.Fatalf("replica %v: reopen: %v", id, err)
		}
		st.Close()
		if uint64(len(blocks)) != l.Height() || l.DurableHeight() != l.Height() {
			t.Errorf("replica %v: store holds %d blocks, durable height %d, ledger height %d",
				id, len(blocks), l.DurableHeight(), l.Height())
		}
	}
}
