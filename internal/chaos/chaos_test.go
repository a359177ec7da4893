package chaos_test

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"resilientdb/internal/byzantine"
	"resilientdb/internal/chaos"
)

// chaosSeed fixes every injected fault decision; the suite must pass
// deterministically (and under -race) with it. `make chaos` runs these
// tests with the full seed matrix (CHAOS_MATRIX=full).
const chaosSeed = 20260728

// byzSeedMatrix is the fixed seed matrix of both suites: every seed must pass
// byte-for-byte reproducibly. Plain `go test` runs the first seed; `make
// chaos` (CHAOS_MATRIX=full) runs all of them.
var byzSeedMatrix = []int64{20260728, 987654321}

// seeds resolves the seed list for a run: CHAOS_SEED pins a single seed (the
// replay workflow — see README "Replaying a chaos failure"), CHAOS_MATRIX=full
// runs the whole matrix, and the default is the matrix's first entry.
func seeds(t *testing.T) []int64 {
	if v := os.Getenv("CHAOS_SEED"); v != "" {
		seed, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED=%q: %v", v, err)
		}
		return []int64{seed}
	}
	if os.Getenv("CHAOS_MATRIX") == "full" {
		return byzSeedMatrix
	}
	return byzSeedMatrix[:1]
}

func TestChaosScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time fault-injection suite")
	}
	runMatrix(t, chaos.Scenarios)
}

// runMatrix runs every scenario of a suite on every seed of the run (see
// seeds). Each seed gets the suite built afresh: attack scripts keep counters.
func runMatrix(t *testing.T, suite func() []chaos.Scenario) {
	for _, seed := range seeds(t) {
		for _, s := range suite() {
			s, seed := s, seed
			t.Run(fmt.Sprintf("%s/seed=%d", s.Name, seed), func(t *testing.T) {
				if err := chaos.Run(s, seed, t.Logf); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestByzantineScenarios runs the scripted-malice suite over the seed
// matrix: equivocating primary, forged certificate shares and forwards,
// forged votes, view-change spam, tampered catch-up and snapshots, each
// asserting honest-prefix safety, post-attack liveness, and forged-message
// accounting.
func TestByzantineScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time fault-injection suite")
	}
	runMatrix(t, chaos.ByzantineScenarios)
}

// TestByzantineHarnessTeeth proves the invariant checks can fail: a
// coalition of f+1 equivocators must drive two honest replicas onto
// divergent prefixes, and the scenario succeeds only when AssertPrefixes
// reports the divergence.
func TestByzantineHarnessTeeth(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time fault-injection suite")
	}
	if err := chaos.Run(chaos.TeethScenario(), seeds(t)[0], t.Logf); err != nil {
		t.Fatal(err)
	}
}

// TestRunEnforcesFaultBound pins the ≤ f byzantine-roles-per-cluster check:
// a scenario exceeding the protocol's fault assumption must be refused
// unless it explicitly opts out.
func TestRunEnforcesFaultBound(t *testing.T) {
	s := chaos.TeethScenario() // 2 roles in one 4-replica cluster (f=1)
	s.AllowOverF = false
	err := chaos.Run(s, chaosSeed, nil)
	if err == nil || !strings.Contains(err.Error(), "fault bound") {
		t.Fatalf("over-f scenario not refused: %v", err)
	}
	// Within the bound the check is silent: one role per cluster passes
	// validation (the scenario itself is exercised by the suites above).
	ok := chaos.Scenario{
		Name: "bound-ok", Clusters: 2, Replicas: 4,
		Byzantine: []chaos.Role{
			{Cluster: 0, Index: 1, Script: byzantine.DoubleVoter{}},
			{Cluster: 1, Index: 1, Script: byzantine.DoubleVoter{}},
		},
		Run: func(e *chaos.Env) error { return nil },
	}
	if err := chaos.Run(ok, chaosSeed, nil); err != nil {
		t.Fatalf("within-bound scenario refused: %v", err)
	}
}
