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

// TestVerifyPoolDeterminism runs the same seeded workload under three verify
// configurations — pool disabled (serial inline verification), pool of one,
// and a wide pool — and asserts that the concurrent verification stage never
// perturbs the deterministic state machine: within every configuration all
// replicas converge to byte-identical verified ledger heads and store
// digests, and across configurations the executed table contents are exactly
// the submitted workload. (Ledger heads are not comparable *across*
// configurations: batch packing in a real-time fabric depends on timing, so
// only the executed data — not the block boundaries — is reproducible.)
func TestVerifyPoolDeterminism(t *testing.T) {
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

	for _, workers := range []int{-1, 1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			topo := config.NewTopology(z, n)
			f := fabric.New(fabric.Config{
				Topo:          topo,
				BatchSize:     txnsPerBatch,
				Records:       256,
				VerifyWorkers: workers,
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
				t.Fatalf("workers=%d: %d writes applied, %d rows; want %d and %d",
					workers, s.Applied(), s.Len(), total, 256+total)
			}
			for ci := 0; ci < clients; ci++ {
				for i := 0; i < totalPerClient; i++ {
					got, ok := ref.Store().Get(workloadKey(ci, i))
					if !ok || got != workloadVal(ci, i) {
						t.Fatalf("workers=%d: key(%d,%d) = %d,%v; want %d",
							workers, ci, i, got, ok, workloadVal(ci, i))
					}
				}
			}
		})
	}
}
