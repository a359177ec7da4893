package fabric

import "testing"

// TestInputWorkers pins how many input goroutines each node runs. The
// regression it guards: sizing a node's verification stage to GOMAXPROCS
// *per node* meant an in-process z2n4 shape on an 8-way host spawned 8 nodes
// × 8 goroutines — an 8× oversubscription whose idle stacks and channel
// buffers showed up as the mem/z2n4 memory regression. The cores are divided
// across the hosted replicas, never below Figure 9's two input threads and
// never above 8.
func TestInputWorkers(t *testing.T) {
	cases := []struct {
		procs, hosted int
		want          int
	}{
		{1, 1, 2},  // single-core container: the two input threads
		{1, 8, 2},  // single core, whole cluster in-process: still two
		{8, 8, 2},  // the mem/z2n4 shape: one core per node → the floor
		{8, 4, 2},  // two cores per node
		{4, 1, 4},  // one hosted replica owns the machine
		{8, 1, 8},  // at the cap exactly
		{16, 1, 8}, // cap: more goroutines than 8 just add contention
		{16, 2, 8}, // division result at the cap
		{64, 4, 8}, // division result above the cap
		{3, 1, 3},  // odd counts pass through
		{5, 2, 2},  // integer division, not rounding
		{4, 0, 4},  // hosted floor: a zero-node config sizes as one node
		{2, -3, 2}, // negative hosted counts clamp the same way
		{0, 1, 2},  // degenerate GOMAXPROCS reads get the floor
	}
	for _, c := range cases {
		if got := inputWorkers(c.procs, c.hosted); got != c.want {
			t.Errorf("inputWorkers(%d procs, %d hosted) = %d, want %d",
				c.procs, c.hosted, got, c.want)
		}
	}
}
