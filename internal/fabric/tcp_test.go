package fabric_test

import (
	"sync"
	"testing"
	"time"

	"resilientdb/internal/config"
	"resilientdb/internal/fabric"
	"resilientdb/internal/transport"
	"resilientdb/internal/types"
)

// TestFabricOverTCP runs a z=2, n=4 deployment where every replica (and the
// clients) lives on its own TCP transport, so all protocol traffic crosses
// real loopback sockets through the wire codec, with cross-cluster latency
// injected through Config.Latency. All ledgers must converge to identical verified heads.
func TestFabricOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	topo := config.NewTopology(2, 4)
	ids := topo.AllReplicas()

	// Bring up one transport per node first so the shared address book is
	// complete before any fabric starts sending.
	var mu sync.Mutex
	book := make(map[types.NodeID]string)
	lookup := func(id types.NodeID) string {
		mu.Lock()
		defer mu.Unlock()
		return book[id]
	}
	latency := func(from, to types.NodeID) time.Duration {
		// 5 ms one-way between clusters, LAN-like within one.
		rf, rt := regionOf(topo, from), regionOf(topo, to)
		if rf != rt {
			return 5 * time.Millisecond
		}
		return 0
	}
	transports := make(map[types.NodeID]*transport.TCP, len(ids)+2)
	newTCP := func(id types.NodeID) *transport.TCP {
		tr, err := transport.NewTCP("127.0.0.1:0", lookup)
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		book[id] = tr.Addr()
		mu.Unlock()
		transports[id] = tr
		return tr
	}
	for _, id := range ids {
		newTCP(id)
	}
	clientTr := newTCP(config.ClientID(0))
	mu.Lock()
	book[config.ClientID(1)] = clientTr.Addr()
	mu.Unlock()

	// One fabric per replica process-slice, plus a pure client fabric on
	// the clients' transport.
	mkCfg := func(tr transport.Transport, local []types.NodeID) fabric.Config {
		return fabric.Config{
			Topo:          topo,
			Records:       256,
			LocalTimeout:  2 * time.Second,
			RemoteTimeout: 3 * time.Second,
			Latency:       latency,
			Transport:     tr,
			Local:         local,
		}
	}
	fabrics := make(map[types.NodeID]*fabric.Fabric, len(ids))
	for _, id := range ids {
		fabrics[id] = fabric.New(mkCfg(transports[id], []types.NodeID{id}))
	}
	clientFab := fabric.New(mkCfg(clientTr, []types.NodeID{}))
	stopAll := func() {
		clientFab.Stop()
		for _, f := range fabrics {
			f.Stop()
		}
	}
	defer stopAll()

	var wg sync.WaitGroup
	for ci := 0; ci < 2; ci++ {
		ci := ci
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := clientFab.NewClient(ci)
			defer cl.Close()
			for b := 0; b < 10; b++ {
				txns := []types.Transaction{
					{Key: uint64(ci*1000 + b*2), Value: uint64(b)},
					{Key: uint64(ci*1000 + b*2 + 1), Value: uint64(b)},
				}
				if err := cl.Submit(txns, 30*time.Second); err != nil {
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
	time.Sleep(time.Second) // let stragglers execute the last rounds
	stopAll()
	checkNoLeaks(t)

	ref := fabrics[ids[0]].Replica(ids[0])
	if ref.Ledger().Height() == 0 {
		t.Fatal("empty ledger after submissions")
	}
	if err := ref.Ledger().Verify(); err != nil {
		t.Fatalf("ledger verify: %v", err)
	}
	for _, id := range ids {
		r := fabrics[id].Replica(id)
		if err := r.Ledger().Verify(); err != nil {
			t.Errorf("%v ledger verify: %v", id, err)
		}
		if r.Ledger().Head() != ref.Ledger().Head() {
			t.Errorf("%v ledger head differs (h=%d vs %d)",
				id, r.Ledger().Height(), ref.Ledger().Height())
		}
		if r.Store().Digest() != ref.Store().Digest() {
			t.Errorf("%v store digest differs", id)
		}
	}
}

func regionOf(topo config.Topology, id types.NodeID) int {
	if id.IsClient() {
		return int(id-types.ClientIDBase) % topo.Clusters
	}
	return int(topo.ClusterOf(id))
}

// TestOpenResolvesOnlyHostedKeys: a fabric that hosts one replica of a
// deployment, as each process of a multi-process one does, derives that
// replica's key pair at Open, before any round, and no other node's: the
// rest are derived when first used.
func TestOpenResolvesOnlyHostedKeys(t *testing.T) {
	topo := config.NewTopology(2, 4)
	self := topo.ReplicaID(1, 2)
	f := fabric.New(fabric.Config{
		Topo:      topo,
		Records:   16,
		Transport: transport.NewMem(),
		Local:     []types.NodeID{self},
	})
	defer f.Stop()
	for _, id := range append(topo.AllReplicas(), config.ClientID(0)) {
		if got := f.KeyResolved(id); got != (id == self) {
			t.Errorf("node %v: key resolved at Open = %v, want %v", id, got, id == self)
		}
	}
}
