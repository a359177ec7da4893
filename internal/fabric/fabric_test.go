package fabric_test

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"resilientdb/internal/config"
	"resilientdb/internal/fabric"
	"resilientdb/internal/metrics"
	"resilientdb/internal/types"
)

func startFabric(t *testing.T, z, n int) *fabric.Fabric {
	t.Helper()
	return fabric.New(fabric.Config{
		Topo:          config.NewTopology(z, n),
		Records:       256,
		LocalTimeout:  400 * time.Millisecond,
		RemoteTimeout: 700 * time.Millisecond,
	})
}

// withInputWorkers gives each of hosted nodes workers cores of GOMAXPROCS
// until t ends, so each node's input stage, sized from GOMAXPROCS / hosted
// and clamped to [2, 8], runs that many goroutines within the clamp.
// workers -1 keeps the running GOMAXPROCS, which go test -cpu sets.
func withInputWorkers(t *testing.T, hosted, workers int) {
	t.Helper()
	if workers < 0 {
		return
	}
	prev := runtime.GOMAXPROCS(workers * hosted)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestFabricEndToEnd drives two clients through a z=2, n=4 deployment and
// checks what the replicas agree on — ledgers, stores, round accounting —
// and the signature counters each of them ran up. It runs at the input
// stage's two extremes: "serial" at the floor of two input goroutines per
// node, the layout of Figure 9, and "pool" at the cap of eight.
func TestFabricEndToEnd(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers int
	}{{"serial", 2}, {"pool", 8}} {
		t.Run(tc.name, func(t *testing.T) {
			withInputWorkers(t, 8, tc.workers)
			testFabricEndToEnd(t)
		})
	}
}

func testFabricEndToEnd(t *testing.T) {
	f := startFabric(t, 2, 4)
	defer f.Stop()

	var wg sync.WaitGroup
	for ci := 0; ci < 2; ci++ {
		ci := ci
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := f.NewClient(ci)
			defer cl.Close()
			for b := 0; b < 6; b++ {
				txns := []types.Transaction{
					{Key: uint64(ci*1000 + b*2), Value: uint64(b)},
					{Key: uint64(ci*1000 + b*2 + 1), Value: uint64(b)},
				}
				if err := cl.Submit(txns, 20*time.Second); err != nil {
					t.Errorf("client %d batch %d: %v", ci, b, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	time.Sleep(300 * time.Millisecond)
	f.Stop()

	topo := config.NewTopology(2, 4)
	ref := f.Replica(topo.ReplicaID(0, 0))
	if ref.Ledger().Height() == 0 {
		t.Fatal("empty ledger after submissions")
	}
	if err := ref.Ledger().Verify(); err != nil {
		t.Fatalf("ledger verify: %v", err)
	}
	for _, id := range topo.AllReplicas() {
		r := f.Replica(id)
		if r.Ledger().Head() != ref.Ledger().Head() {
			t.Errorf("%v ledger head differs (h=%d vs %d)",
				id, r.Ledger().Height(), ref.Ledger().Height())
		}
		if r.Store().Digest() != ref.Store().Digest() {
			t.Errorf("%v store digest differs", id)
		}
	}
	// The fabric's own round accounting: every block of every replica is
	// either a client batch or a no-op, and all 12 client batches executed
	// everywhere.
	var blocks uint64
	for _, id := range topo.AllReplicas() {
		blocks += f.Replica(id).Ledger().Height()
	}
	rs := f.Stats().Rounds
	if rs.ClientBatches != 12*8 || rs.ClientBatches+rs.NoOpBatches != blocks {
		t.Errorf("Stats().Rounds = %+v over %d blocks: want 96 client batches and the rest no-ops", rs, blocks)
	}
	if frac := rs.NoOpFrac(); frac != float64(rs.NoOpBatches)/float64(blocks) {
		t.Errorf("NoOpFrac = %v", frac)
	}
	// The signature counters, per node. The other cluster's certificate costs
	// its n−f signature checks only where it was verified: at the f+1
	// replicas it was sent to — they rotate with the round — or at a replica
	// whose f+1 forwards came more than a grace apart (counted, possible on a
	// loaded host). Everywhere else it was accepted on the forwards, for
	// nothing (on a host stalled past the remote timeout also where it was
	// sent: DRvc answers are forwards too). No backup verifies a vote; the primary also proves its own
	// cluster's certificate (quorum−1 peer votes) before sharing it, and
	// verified the six client requests it admitted. Everyone signs a prepare
	// and a commit per round and a checkpoint every sixth.
	var sum metrics.CryptoStats
	for _, id := range topo.AllReplicas() {
		cs := f.Node(id).CryptoStats()
		sum.Add(cs)
		rounds := f.Replica(id).ExecutedRound()
		var skipped uint64 // rounds whose share was not sent to this replica
		for rnd := uint64(1); rnd <= rounds; rnd++ {
			if idx := uint64(topo.LocalIndex(id)); rnd%4 != idx && (rnd+1)%4 != idx {
				skipped++
			}
		}
		// Every round's remote certificate was accepted once: verified (3
		// checks) or vouched for (none).
		own := uint64(0)
		if topo.LocalIndex(id) == 0 {
			own = 2*rounds + 6
		}
		// The input stage can add one thing on a loaded host: a copy sent to
		// this replica that arrives after the certificate was already
		// accepted from forwards is still verified there, before the worker
		// can see that, and then dropped — at most one such copy per round
		// the replica was sent.
		lo := 3 * (rounds - cs.SharesVouched)
		hi := max(lo, 3*(rounds-skipped+cs.SharesSelfVerified))
		if cs.Verifies < lo+own || cs.Verifies > hi+own {
			t.Errorf("%v after %d rounds: %d verifies, want %d to %d (%+v)", id, rounds, cs.Verifies, lo+own, hi+own, cs)
		}
		if accepted := cs.SharesVouched + cs.SharesSelfVerified; accepted < skipped {
			t.Errorf("%v after %d rounds: %d shares vouched, %d self-verified; it was skipped in %d rounds", id, rounds, cs.SharesVouched, cs.SharesSelfVerified, skipped)
		}
		if want := 2*rounds + rounds/6; cs.Signs != want || cs.BadVoteSigs != 0 || cs.Unprovable != 0 {
			t.Errorf("%v after %d rounds: %+v, want %d signs and no bad or unprovable votes", id, rounds, cs, want)
		}
	}
	if sum.SharesVouched == 0 {
		t.Error("no replica accepted a certificate on forwards")
	}
	if got := f.Stats().Crypto; got != sum {
		t.Errorf("Stats().Crypto = %+v, nodes sum to %+v", got, sum)
	}
	t.Logf("%.2f verifies per executed round, summed over the nodes", float64(sum.Verifies)/float64(ref.ExecutedRound()))
	checkNoLeaks(t)
}

func TestFabricExecuteHook(t *testing.T) {
	var mu sync.Mutex
	executed := make(map[types.NodeID]int)
	f := fabric.New(fabric.Config{
		Topo:    config.NewTopology(1, 4),
		Records: 64,
		OnExecute: func(replica types.NodeID, _ uint64, _ types.ClusterID, batch types.Batch) {
			if !batch.NoOp {
				mu.Lock()
				executed[replica] += batch.Len()
				mu.Unlock()
			}
		},
	})
	defer f.Stop()
	cl := f.NewClient(0)
	defer cl.Close()
	if err := cl.Submit([]types.Transaction{{Key: 1, Value: 2}, {Key: 3, Value: 4}}, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	hooked := 0
	for _, n := range executed {
		if n >= 2 {
			hooked++
		}
	}
	if hooked < 3 { // f+1 = 2 needed for the reply; most replicas execute
		t.Errorf("execute hook fired at %d replicas", hooked)
	}
}

// TestFabricPrimaryCrashRecovery crashes cluster 0's primary under a client.
// The first batch after the crash waits for its retry and the view change;
// its replies name the new view, so every later batch goes straight to the
// new primary. A client that kept sending to the dead one would wait a retry
// interval (1 s or more) for each.
func TestFabricPrimaryCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time recovery test")
	}
	f := startFabric(t, 2, 4)
	defer f.Stop()
	topo := config.NewTopology(2, 4)

	cl := f.NewClient(0)
	defer cl.Close()
	if err := cl.Submit([]types.Transaction{{Key: 1, Value: 1}}, 20*time.Second); err != nil {
		t.Fatalf("pre-crash: %v", err)
	}

	f.Crash(topo.ReplicaID(0, 0))

	for b := 0; b < 12; b++ {
		start := time.Now()
		if err := cl.Submit([]types.Transaction{{Key: uint64(10 + b), Value: 1}}, 60*time.Second); err != nil {
			t.Fatalf("post-crash batch %d: %v", b, err)
		}
		if took := time.Since(start); b > 0 && took >= 500*time.Millisecond {
			t.Errorf("post-crash batch %d took %v: the client did not follow the new primary", b, took)
		}
	}
	if v := f.Replica(topo.ReplicaID(0, 1)).LocalView(); v == 0 {
		t.Error("cluster 0 never changed view after primary crash")
	}
}

// TestFabricNodeLifecycle stops one replica, lets the cluster advance well
// past it, restarts it (amnesia), and requires ledger catch-up to bring it
// back to the live height. It also pins the idempotence contract: double
// StopNode, StartNode on a running node, and Fabric.Stop after an individual
// StopNode must all be safe.
func TestFabricNodeLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time recovery test")
	}
	f := startFabric(t, 2, 4)
	defer f.Stop()
	topo := config.NewTopology(2, 4)
	victim := topo.ReplicaID(0, 3) // a backup; quorum survives without it
	ref := topo.ReplicaID(0, 1)

	cl := f.NewClient(0)
	defer cl.Close()
	submit := func(base, n int) {
		t.Helper()
		for b := 0; b < n; b++ {
			if err := cl.Submit([]types.Transaction{{Key: uint64(base + b), Value: 1}}, 30*time.Second); err != nil {
				t.Fatalf("batch %d: %v", base+b, err)
			}
		}
	}
	submit(0, 3)

	if err := f.StartNode(victim, false); err == nil {
		t.Fatal("StartNode on a running node must fail")
	}
	f.StopNode(victim)
	f.StopNode(victim) // idempotent
	frozen := f.Replica(victim).Ledger().Height()

	submit(100, 6) // the cluster leaves the victim behind
	gap := f.Replica(ref).Ledger().Height()
	if gap <= frozen {
		t.Fatalf("cluster did not advance past the crash (height %d)", gap)
	}

	if err := f.StartNode(victim, false); err != nil {
		t.Fatal(err)
	}
	if err := f.StartNode(victim, false); err == nil {
		t.Fatal("second StartNode must fail while running")
	}
	submit(200, 2) // live traffic gives the restarted replica gap evidence

	deadline := time.Now().Add(60 * time.Second)
	for {
		rl, vl := f.Replica(ref).Ledger(), f.Replica(victim).Ledger()
		if h := rl.Height(); h > 0 && vl.Height() == h && vl.Head() == rl.Head() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("catch-up stuck: victim at %d, cluster at %d",
				f.Replica(victim).Ledger().Height(), f.Replica(ref).Ledger().Height())
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err := f.Replica(victim).Ledger().Verify(); err != nil {
		t.Fatal(err)
	}

	// Shutdown after an individual stop must stay clean and idempotent.
	f.StopNode(victim)
	f.Stop()
	f.Stop()
	if err := f.StartNode(victim, false); err == nil {
		t.Fatal("StartNode after Fabric.Stop must fail")
	}
	cl.Close()
	checkNoLeaks(t)
}

// TestFabricStartNodeKeepLedger restarts a crashed replica from its retained
// ledger: the bootstrap replays (and re-verifies) the disk copy, catch-up
// fetches only the missed suffix, and the store state must match replicas
// that executed everything live.
func TestFabricStartNodeKeepLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time recovery test")
	}
	f := startFabric(t, 1, 4)
	defer f.Stop()
	topo := config.NewTopology(1, 4)
	victim := topo.ReplicaID(0, 2)
	ref := topo.ReplicaID(0, 1)

	cl := f.NewClient(0)
	defer cl.Close()
	for b := 0; b < 4; b++ {
		if err := cl.Submit([]types.Transaction{{Key: uint64(b), Value: 9}}, 30*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	f.StopNode(victim)
	frozen := f.Replica(victim).Ledger().Height()
	for b := 0; b < 6; b++ {
		if err := cl.Submit([]types.Transaction{{Key: uint64(100 + b), Value: 9}}, 30*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.StartNode(victim, true); err != nil {
		t.Fatal(err)
	}
	// The bootstrap replay runs on the restarted worker; give it a moment.
	bootDeadline := time.Now().Add(10 * time.Second)
	for f.Replica(victim).Ledger().Height() < frozen {
		if time.Now().After(bootDeadline) {
			t.Fatalf("bootstrap lost the preserved chain: height %d < %d",
				f.Replica(victim).Ledger().Height(), frozen)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for b := 0; b < 2; b++ {
		if err := cl.Submit([]types.Transaction{{Key: uint64(200 + b), Value: 9}}, 30*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		rl, vl := f.Replica(ref).Ledger(), f.Replica(victim).Ledger()
		if h := rl.Height(); h > 0 && vl.Height() == h && vl.Head() == rl.Head() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("catch-up stuck: victim at %d, cluster at %d",
				f.Replica(victim).Ledger().Height(), f.Replica(ref).Ledger().Height())
		}
		time.Sleep(50 * time.Millisecond)
	}
	f.Stop()
	if got, want := f.Replica(victim).Store().Digest(), f.Replica(ref).Store().Digest(); got != want {
		t.Error("restarted replica's store diverged from the cluster's")
	}
}

// TestFabricSnapshotGC runs a disk-backed deployment with aggressive
// checkpointing (snapshot every 2 rounds, tiny segments) under enough load
// to cross several checkpoints, then asserts the bounded-history loop end
// to end: snapshots are captured and archived, segments below the stable
// checkpoint are reclaimed, and every replica's on-disk segment count stays
// within the retention budget — the disk-usage bound the subsystem exists
// to provide.
func TestFabricSnapshotGC(t *testing.T) {
	const retain = 2
	topo := config.NewTopology(2, 4)
	dataDir := t.TempDir()
	f := fabric.New(fabric.Config{
		Topo:             topo,
		Records:          256,
		LocalTimeout:     400 * time.Millisecond,
		RemoteTimeout:    700 * time.Millisecond,
		DataDir:          dataDir,
		DiskSegmentBytes: 512,
		SnapshotInterval: 2,
		RetainSegments:   retain,
	})
	defer f.Stop()

	cl := f.NewClient(0)
	for b := 0; b < 30; b++ {
		txns := []types.Transaction{{Key: uint64(b), Value: uint64(b)}}
		if err := cl.Submit(txns, 20*time.Second); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
	}
	cl.Close()

	// Snapshots publish only once a stable PBFT checkpoint covers them;
	// give the checkpoint exchange a beat to settle before stopping.
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if st := f.Stats().Snapshots; st.Written > 0 && st.SegmentsReclaimed > 0 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	f.Stop()

	st := f.Stats().Snapshots
	if st.Written == 0 {
		t.Fatalf("30 rounds at snapshot-interval 2 wrote no snapshots: %+v", st)
	}
	if st.SegmentsReclaimed == 0 || st.BytesReclaimed == 0 {
		t.Fatalf("checkpoints advanced but GC reclaimed nothing: %+v", st)
	}
	if st.StoreErrs != 0 || st.Rejected != 0 {
		t.Fatalf("healthy run reported store errors or rejected snapshots: %+v", st)
	}
	// The literal disk bound, per replica: the retained segments plus the
	// suffix accumulated since the last stable checkpoint (snapshots lag
	// the tip by up to CheckpointInterval rounds of blocks; at z=2 and
	// ~2 blocks per 512-byte segment that is a handful of segments, never
	// the whole chain).
	for _, id := range topo.AllReplicas() {
		segs, err := filepath.Glob(filepath.Join(dataDir, fmt.Sprintf("node-%d", int(id)), "seg-*.rdb"))
		if err != nil {
			t.Fatal(err)
		}
		if len(segs) > retain+12 {
			t.Errorf("replica %d holds %d segments; retention budget is %d plus a stable-checkpoint lag",
				id, len(segs), retain)
		}
		arch, err := filepath.Glob(filepath.Join(dataDir, fmt.Sprintf("node-%d", int(id)), "snapshots", "snap-*.man"))
		if err != nil {
			t.Fatal(err)
		}
		if len(arch) == 0 || len(arch) > 2 {
			t.Errorf("replica %d archives %d checkpoints, want 1–2 (archive retention)", id, len(arch))
		}
	}
}
