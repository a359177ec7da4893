package disk_test

import (
	"testing"
	"time"

	"resilientdb/internal/core"
	"resilientdb/internal/ledger"
	"resilientdb/internal/ledger/disk"
	"resilientdb/internal/pbft"
	"resilientdb/internal/types"
)

// appendBlock drives the production append path for one block: the ledger
// hashes and links it, then routes it to the store.
func appendBlock(l *ledger.Ledger, h uint64) {
	round := (h-1)/2 + 1
	cluster := types.ClusterID((h - 1) % 2)
	b := types.Batch{
		Client: types.ClientIDBase + types.NodeID(cluster),
		Seq:    round,
		Txns: []types.Transaction{
			{Key: h, Value: h * 7}, {Key: h << 8, Value: h * 13},
			{Key: h << 16, Value: h * 17}, {Key: h << 24, Value: h * 19},
		},
	}
	b.PrimeDigest()
	l.AppendCertified(round, cluster, b, &pbft.Certificate{
		View: 1, Seq: round, Digest: b.Digest(), Batch: b,
		Signers: []types.NodeID{0, 1, 2},
		Sigs:    [][]byte{{1, 2, 3, 4}, {5, 6, 7, 8}, {9, 10, 11, 12}},
	})
}

// BenchmarkLedgerAppend measures the cost of one certified append through
// the ledger with a disk store attached, across the durability modes. The
// first three are write-through (SetStore): the spread between fsync-each
// and group-commit/nosync is the price of one fsync per block, and nosync is
// the codec+write floor. coalesced is the live node's path (StartPersister):
// the same fsync-before-acknowledge store, but the appending goroutine only
// hands rounds of two blocks to the persister, which covers whatever queued
// up during the previous fsync with the next one. Its ns/op is what a block
// costs the worker when the disk is the bottleneck (hand-off back-pressure
// included, final drain included), and blocks/fsync is the coalescing factor
// that bought it; a node under consensus load queues far less per fsync.
func BenchmarkLedgerAppend(b *testing.B) {
	for _, tc := range []struct {
		name      string
		opts      disk.Options
		coalesced bool
	}{
		{"fsync-each", disk.Options{}, false},
		{"group-commit-5ms", disk.Options{GroupCommit: 5 * time.Millisecond}, false},
		{"nosync", disk.Options{NoSync: true}, false},
		{"coalesced", disk.Options{}, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			st, _, err := disk.Open(b.TempDir(), core.BlockCodec{}, tc.opts)
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			l := ledger.New()
			if tc.coalesced {
				l.StartPersister(st)
			} else {
				l.SetStore(st)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				appendBlock(l, uint64(i+1))
				if i%2 == 1 {
					l.Handoff() // end of a z=2 round; a no-op write-through
				}
			}
			l.StopPersister() // drains the queue; a no-op write-through
			b.StopTimer()
			if err := l.StoreErr(); err != nil {
				b.Fatal(err)
			}
			if st.Height() != uint64(b.N) {
				b.Fatalf("store holds %d blocks, want %d", st.Height(), b.N)
			}
			if syncs, blocks := st.SyncStats(); syncs > 0 {
				b.ReportMetric(float64(blocks)/float64(syncs), "blocks/fsync")
			}
		})
	}
}

// BenchmarkDiskBootstrap measures local-replay recovery: opening a store of
// bootBlocks blocks (decode + CRC) and importing them into a fresh ledger
// (hash-chain re-derivation) — everything a restarting node does with its
// disk except certificate signature verification, which is protocol-level
// and benchmarked with the fabric. Compare against pulling the same range
// over the network via catch-up to see what a surviving disk is worth.
func BenchmarkDiskBootstrap(b *testing.B) {
	const bootBlocks = 2048
	dir := b.TempDir()
	st, _, err := disk.Open(dir, core.BlockCodec{}, disk.Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	l := ledger.New()
	l.SetStore(st)
	for h := uint64(1); h <= bootBlocks; h++ {
		appendBlock(l, h)
	}
	if err := l.StoreErr(); err != nil {
		b.Fatal(err)
	}
	st.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, blocks, err := disk.Open(dir, core.BlockCodec{}, disk.Options{NoSync: true})
		if err != nil {
			b.Fatal(err)
		}
		if len(blocks) != bootBlocks {
			b.Fatalf("recovered %d blocks, want %d", len(blocks), bootBlocks)
		}
		fresh := ledger.New()
		if err := fresh.Import(blocks, nil); err != nil {
			b.Fatal(err)
		}
		st.Close()
	}
	b.ReportMetric(float64(bootBlocks), "blocks/op")
}
