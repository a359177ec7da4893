// Failures: crash the primary of one cluster mid-run and watch GeoBFT's
// remote view-change protocol (paper Figure 7) restore progress — the other
// cluster detects the missing certificates, proves the failure with signed
// Rvc messages, and forces the crashed primary's cluster to elect a new one.
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
		LocalTimeout:       resilientdb.Duration(400 * time.Millisecond),
		RemoteTimeout:      resilientdb.Duration(600 * time.Millisecond),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	client := db.Client(0) // homed in cluster 0
	defer client.Close()

	submit := func(tag string, from, count int) {
		ok := 0
		for i := 0; i < count; i++ {
			txns := []resilientdb.Transaction{{Key: uint64(from + i), Value: uint64(i)}}
			if err := client.Submit(txns, 20*time.Second); err != nil {
				fmt.Printf("  %s batch %d: %v\n", tag, i, err)
				continue
			}
			ok++
		}
		fmt.Printf("%s: %d/%d batches committed\n", tag, ok, count)
	}

	fmt.Println("phase 1: normal operation")
	submit("pre-crash", 0, 5)

	fmt.Println("\nphase 2: crashing the primary of cluster 0 (replica r0)")
	db.CrashReplica(0, 0)

	// The client keeps submitting. Its first batch goes to the dead primary;
	// the retry broadcasts it to the whole local cluster, the backups detect
	// the silence, and cluster 1's remote view-change pressure guarantees a
	// new primary even if cluster 0's own timers were somehow suppressed.
	// The replies name the new view, so later batches go to the new primary.
	start := time.Now()
	submit("post-crash", 100, 5)
	fmt.Printf("recovered and committed under a new primary in %v\n",
		time.Since(start).Round(time.Millisecond))

	view := db.Replica(0, 1).Local().View()
	fmt.Printf("cluster 0 survivors are now in view %d (primary %v)\n",
		view, db.Replica(0, 1).Local().Primary())

	time.Sleep(200 * time.Millisecond)
	db.Close()
	ref := db.ReplicaLedger(0, 1)
	if err := ref.Verify(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ledger verified: %d blocks despite the crash\n", ref.Height())
}
