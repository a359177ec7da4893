// Banking: a geo-distributed payment ledger on the ResilientDB fabric — the
// enterprise scenario the paper's introduction motivates. Branches in two
// regions record account balances; every update is totally ordered by
// GeoBFT, executed on every replica, and appended to the tamper-evident
// blockchain.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"resilientdb"
)

const accounts = 64

func main() {
	db, err := resilientdb.Open(resilientdb.Options{
		Clusters:           2,
		ReplicasPerCluster: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// One branch (client) per region.
	west, east := db.Client(0), db.Client(1)
	defer west.Close()
	defer east.Close()

	// Post deposits from both branches concurrently: each account's final
	// balance is deterministic because GeoBFT totally orders all updates.
	rng := rand.New(rand.NewSource(7))
	balances := make([]uint64, accounts)
	post := func(c *resilientdb.Client, name string, rounds int) {
		for r := 0; r < rounds; r++ {
			txns := make([]resilientdb.Transaction, 8)
			for i := range txns {
				acct := rng.Intn(accounts)
				balances[acct] += 100
				txns[i] = resilientdb.Transaction{Key: uint64(acct), Value: balances[acct]}
			}
			if err := c.Submit(txns, 10*time.Second); err != nil {
				log.Fatalf("%s: %v", name, err)
			}
		}
		fmt.Printf("%s branch posted %d updates\n", name, rounds*8)
	}
	post(west, "west", 4)
	post(east, "east", 4)

	time.Sleep(200 * time.Millisecond)
	db.Close()

	// Audit: every replica in every region carries the identical, verified
	// transaction history.
	z, n, _ := db.Topology()
	ref := db.ReplicaLedger(0, 0)
	if err := ref.Verify(); err != nil {
		log.Fatalf("audit failed: %v", err)
	}
	agree := 0
	for c := 0; c < z; c++ {
		for i := 0; i < n; i++ {
			if db.ReplicaLedger(c, i).Head() == ref.Head() {
				agree++
			}
		}
	}
	fmt.Printf("\naudit: %d blocks, head %s, %d/%d replicas in agreement\n",
		ref.Height(), ref.Head().Short(), agree, z*n)

	// The chain is append-only evidence: every posted balance is in it.
	posted := 0
	for h := uint64(1); h <= ref.Height(); h++ {
		if b := ref.Block(h); !b.Batch.NoOp {
			posted += b.Batch.Len()
		}
	}
	fmt.Printf("audit: %d balance updates recorded on-chain\n", posted)
}
