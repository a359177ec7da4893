package resilientdb_test

import (
	"testing"
	"time"

	"resilientdb"
)

func TestOpenValidation(t *testing.T) {
	if _, err := resilientdb.Open(resilientdb.Options{Clusters: 0, ReplicasPerCluster: 4}); err == nil {
		t.Error("accepted zero clusters")
	}
	if _, err := resilientdb.Open(resilientdb.Options{Clusters: 2, ReplicasPerCluster: 3}); err == nil {
		t.Error("accepted n < 4")
	}
	if _, err := resilientdb.Open(resilientdb.Options{Clusters: 7, ReplicasPerCluster: 4}); err == nil {
		t.Error("accepted more clusters than regions")
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	db, err := resilientdb.Open(resilientdb.Options{
		Clusters:           2,
		ReplicasPerCluster: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	z, n, f := db.Topology()
	if z != 2 || n != 4 || f != 1 {
		t.Fatalf("topology = (%d,%d,%d)", z, n, f)
	}

	// An index without a provisioned key fails its submits; it does not panic.
	if err := db.Client(64).Submit(nil, time.Second); err == nil {
		t.Error("client 64 of 64 provisioned identities submitted")
	}

	cl := db.Client(0)
	defer cl.Close()
	for b := 0; b < 3; b++ {
		txns := []resilientdb.Transaction{
			{Key: uint64(b * 2), Value: uint64(b)},
			{Key: uint64(b*2 + 1), Value: uint64(b)},
		}
		if err := cl.Submit(txns, 20*time.Second); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
	}
	time.Sleep(300 * time.Millisecond)
	db.Close()

	ref := db.ReplicaLedger(0, 0)
	if ref.Height() == 0 {
		t.Fatal("empty ledger")
	}
	if err := ref.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	for c := 0; c < z; c++ {
		for i := 0; i < n; i++ {
			if db.ReplicaLedger(c, i).Head() != ref.Head() {
				t.Errorf("replica (%d,%d) diverged", c, i)
			}
		}
	}
}

func TestSimulateFacade(t *testing.T) {
	m := resilientdb.Simulate(resilientdb.Experiment{
		Protocol:   resilientdb.GeoBFT,
		Clusters:   2,
		PerCluster: 4,
		Warmup:     300 * time.Millisecond,
		Measure:    time.Second,
	})
	if m.Throughput <= 0 {
		t.Errorf("throughput = %f", m.Throughput)
	}
	// Determinism through the facade.
	m2 := resilientdb.Simulate(resilientdb.Experiment{
		Protocol:   resilientdb.GeoBFT,
		Clusters:   2,
		PerCluster: 4,
		Warmup:     300 * time.Millisecond,
		Measure:    time.Second,
	})
	if m.Throughput != m2.Throughput {
		t.Error("simulation not deterministic through facade")
	}
}
