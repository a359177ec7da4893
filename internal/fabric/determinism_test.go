package fabric_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"resilientdb/internal/config"
	"resilientdb/internal/fabric"
	"resilientdb/internal/types"
)

// TestVerifyPoolDeterminism runs a seeded workload and asserts that the
// concurrent input stage, which verifies messages off the worker and hands
// them over in no fixed order, never perturbs the deterministic state
// machine: all replicas converge to byte-identical verified ledger heads and
// store digests, and the executed table contents are exactly the submitted
// workload. (Ledger heads are not comparable across runs: batch packing in a
// real-time fabric depends on timing, so only the executed data — not the
// block boundaries — is reproducible.) Each subtest gives every node the
// named number of cores (-1: the running GOMAXPROCS), so the input stage
// runs at its floor of two goroutines, at four, and at whatever go test
// -cpu makes it.
func TestVerifyPoolDeterminism(t *testing.T) {
	for _, workers := range []int{-1, 1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			withInputWorkers(t, 8, workers)
			testVerifyPoolDeterminism(t)
		})
	}
}

func testVerifyPoolDeterminism(t *testing.T) {
	const (
		z, n            = 2, 4
		clients         = 2
		batchesPer      = 6
		txnsPerBatch    = 4
		totalPerClient  = batchesPer * txnsPerBatch
		submitTimeout   = 30 * time.Second
		convergeTimeout = 30 * time.Second
	)
	workloadKey := func(client, i int) uint64 { return uint64(client)<<20 | uint64(i) | 1<<30 }
	workloadVal := func(client, i int) uint64 { return uint64(client*1_000_000 + i) }

	topo := config.NewTopology(z, n)
	f := fabric.New(fabric.Config{
		Topo:          topo,
		BatchSize:     txnsPerBatch,
		Records:       256,
		LocalTimeout:  2 * time.Second,
		RemoteTimeout: 3 * time.Second,
	})
	defer f.Stop()

	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		ci := ci
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := f.NewClient(ci)
			defer cl.Close()
			for b := 0; b < batchesPer; b++ {
				txns := make([]types.Transaction, txnsPerBatch)
				for i := range txns {
					idx := b*txnsPerBatch + i
					txns[i] = types.Transaction{Key: workloadKey(ci, idx), Value: workloadVal(ci, idx)}
				}
				if err := cl.Submit(txns, submitTimeout); err != nil {
					t.Errorf("client %d batch %d: %v", ci, b, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Wait until every replica executed the full workload and all
	// ledger heads agree (stragglers catch up via recovery).
	ids := topo.AllReplicas()
	deadline := time.Now().Add(convergeTimeout)
	for {
		converged := true
		ref := f.Replica(ids[0])
		for _, id := range ids {
			r := f.Replica(id)
			if r.ExecutedTxns() < clients*totalPerClient ||
				r.Ledger().Head() != ref.Ledger().Head() {
				converged = false
				break
			}
		}
		if converged {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas did not converge: txns=%d head0=%v",
				f.Replica(ids[0]).ExecutedTxns(), f.Replica(ids[0]).Ledger().Head().Short())
		}
		time.Sleep(20 * time.Millisecond)
	}
	f.Stop()

	// Within this configuration: identical verified ledgers and
	// execution digests everywhere.
	ref := f.Replica(ids[0])
	if err := ref.Ledger().Verify(); err != nil {
		t.Fatalf("ledger verify: %v", err)
	}
	for _, id := range ids {
		r := f.Replica(id)
		if err := r.Ledger().Verify(); err != nil {
			t.Errorf("%v ledger verify: %v", id, err)
		}
		if r.Ledger().Head() != ref.Ledger().Head() {
			t.Errorf("%v ledger head differs", id)
		}
		if r.Store().Digest() != ref.Store().Digest() {
			t.Errorf("%v store digest differs", id)
		}
	}

	// Across configurations: the executed table contents are exactly
	// the submitted workload — every write applied once, every key a
	// new row beside the preloaded ones, each holding its value.
	const total = clients * totalPerClient
	if s := ref.Store(); s.Applied() != total || s.Len() != 256+total {
		t.Fatalf("%d writes applied, %d rows; want %d and %d",
			s.Applied(), s.Len(), total, 256+total)
	}
	for ci := 0; ci < clients; ci++ {
		for i := 0; i < totalPerClient; i++ {
			got, ok := ref.Store().Get(workloadKey(ci, i))
			if !ok || got != workloadVal(ci, i) {
				t.Fatalf("key(%d,%d) = %d,%v; want %d",
					ci, i, got, ok, workloadVal(ci, i))
			}
		}
	}
}
