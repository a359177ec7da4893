// Quickstart: start a two-cluster ResilientDB fabric in-process, submit a
// few transaction batches through a client, and inspect the resulting
// blockchain.
package main

import (
	"fmt"
	"log"
	"time"

	"resilientdb"
)

func main() {
	db, err := resilientdb.Open(resilientdb.Options{
		Clusters:           2,
		ReplicasPerCluster: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	z, n, f := db.Topology()
	fmt.Printf("fabric up: %d clusters × %d replicas (tolerating f=%d per cluster)\n", z, n, f)

	client := db.Client(0)
	defer client.Close()

	for batch := 0; batch < 5; batch++ {
		txns := make([]resilientdb.Transaction, 10)
		for i := range txns {
			txns[i] = resilientdb.Transaction{
				Key:   uint64(batch*10 + i),
				Value: uint64(1000 + batch),
			}
		}
		if err := client.Submit(txns, 10*time.Second); err != nil {
			log.Fatalf("batch %d: %v", batch, err)
		}
		fmt.Printf("batch %d committed (f+1 local confirmations)\n", batch)
	}

	// Give stragglers a moment, then stop and audit the chain.
	time.Sleep(200 * time.Millisecond)
	db.Close()

	led := db.ReplicaLedger(0, 1)
	if err := led.Verify(); err != nil {
		log.Fatalf("ledger verification failed: %v", err)
	}
	fmt.Printf("\nledger of replica (0,1): %d blocks, head %s — hash chain verified\n",
		led.Height(), led.Head().Short())
	for h := uint64(1); h <= led.Height() && h <= 6; h++ {
		b := led.Block(h)
		kind := fmt.Sprintf("%d txns", b.Batch.Len())
		if b.Batch.NoOp {
			kind = "no-op"
		}
		fmt.Printf("  block %2d  round %2d  cluster %d  %s\n", b.Height, b.Round, b.Cluster, kind)
	}

	// Non-divergence: all replicas across both clusters hold the same chain.
	ref := db.ReplicaLedger(0, 0)
	agree := 0
	for c := 0; c < z; c++ {
		for i := 0; i < n; i++ {
			if db.ReplicaLedger(c, i).Head() == ref.Head() {
				agree++
			}
		}
	}
	fmt.Printf("%d/%d replicas agree on the ledger head\n", agree, z*n)
}
