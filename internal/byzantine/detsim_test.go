package byzantine_test

import (
	"fmt"
	"testing"
	"time"

	"resilientdb/internal/byzantine"
	"resilientdb/internal/config"
	"resilientdb/internal/core"
	"resilientdb/internal/crypto"
	"resilientdb/internal/detsim"
	"resilientdb/internal/ledger"
	"resilientdb/internal/types"
)

// TestScriptRunsOnDetsim runs an attack script unchanged on the
// deterministic simulator: the fleet's Intercept, the hook transport.Tap
// takes in the fabric, is the simulator's Intercept. Cluster 0's primary of a z=2,
// n=4 GeoBFT deployment equivocates on its first rounds and shows a detector
// both sides; the clients of both clusters still complete every batch, the
// honest ledgers agree on their prefixes, and the adversary's counters show
// the attack ran. The run is exact and repeats: a failure replays from the
// seed alone.
func TestScriptRunsOnDetsim(t *testing.T) {
	topo := config.NewTopology(2, 4)
	net := detsim.New(detsim.Options{Profile: config.GoogleCloudProfile(2), Seed: 5, Mode: crypto.Fast})
	fleet := byzantine.NewFleet(1)
	attacker := topo.ReplicaID(0, 0)
	adv := fleet.Adversary(topo, crypto.Fast, attacker, &byzantine.EquivocatingPrimary{Rounds: 3, Detector: true})
	adv.Arm()
	net.Intercept = fleet.Intercept

	reps := map[types.NodeID]*core.Replica{}
	for c := 0; c < topo.Clusters; c++ {
		for _, id := range topo.ClusterMembers(c) {
			reps[id] = core.NewReplica(core.Config{Topo: topo, Self: id, Records: 1000,
				LocalTimeout: time.Second, RemoteTimeout: 2 * time.Second})
			net.AddNode(id, c, reps[id])
		}
	}
	// One request in flight per client identity, as the fabric's clients
	// run: a request the view change drops is re-proposed on the client's
	// retry, which pbft's per-client high-water mark would refuse once a
	// later request of the same client had executed.
	var clients []*detsim.Client
	for c := 0; c < topo.Clusters; c++ {
		cl := &detsim.Client{Group: topo.ClusterMembers(c), Window: 1, BatchSize: 10, Total: 20}
		clients = append(clients, cl)
		net.AddNode(config.ClientID(c), c, cl)
	}
	net.RunUntil(120 * time.Second)

	for c, cl := range clients {
		if cl.Completed() != cl.Total {
			t.Errorf("cluster %d client completed %d/%d under an equivocating primary", c, cl.Completed(), cl.Total)
		}
	}
	honest := map[string]*ledger.Ledger{}
	for id, r := range reps {
		if id != attacker {
			honest[fmt.Sprint(id)] = r.Ledger()
		}
	}
	if err := ledger.AuditPrefixes(honest); err != nil {
		t.Errorf("honest ledgers: %v", err)
	}
	if st := adv.Stats(); st.Forked == 0 || st.Intercepted == 0 {
		t.Errorf("the adversary never acted: %+v", st)
	}
}
