package crypto

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"resilientdb/internal/types"
)

// testCosts is a cost table with a distinct nonzero cost per operation, so
// a test can tell which operation was billed.
var testCosts = Costs{
	Sign:      25 * time.Microsecond,
	Verify:    65 * time.Microsecond,
	MAC:       2 * time.Microsecond,
	VerifyMAC: 3 * time.Microsecond,
	HashPerKB: 5 * time.Microsecond,
	ExecTxn:   500 * time.Nanosecond,
}

func suitePair(t *testing.T, mode Mode, charge func(time.Duration)) (*Suite, *Suite) {
	t.Helper()
	nodes := []types.NodeID{1, 2}
	dir := NewDirectory(mode, nodes)
	return NewSuite(dir, 1, testCosts, charge),
		NewSuite(dir, 2, testCosts, charge)
}

func TestSignVerifyBothModes(t *testing.T) {
	for _, mode := range []Mode{Real, Fast} {
		name := map[Mode]string{Real: "real", Fast: "fast"}[mode]
		t.Run(name, func(t *testing.T) {
			a, b := suitePair(t, mode, nil)
			payload := []byte("commit view=3 seq=9")
			sig := a.Sign(payload)
			if !b.Verify(1, payload, sig) {
				t.Fatal("valid signature rejected")
			}
			if b.Verify(2, payload, sig) {
				t.Error("signature attributed to wrong signer accepted")
			}
			if b.Verify(1, []byte("different payload"), sig) {
				t.Error("signature over different payload accepted")
			}
			if b.Verify(1, payload, append([]byte{0}, sig...)) {
				t.Error("mangled signature accepted")
			}
		})
	}
}

func TestMACBothModes(t *testing.T) {
	for _, mode := range []Mode{Real, Fast} {
		name := map[Mode]string{Real: "real", Fast: "fast"}[mode]
		t.Run(name, func(t *testing.T) {
			a, b := suitePair(t, mode, nil)
			payload := []byte("prepare view=1 seq=2")
			tag := a.MAC(2, payload)
			if !b.VerifyMAC(1, payload, tag) {
				t.Fatal("valid MAC rejected")
			}
			if b.VerifyMAC(1, []byte("other"), tag) {
				t.Error("MAC over different payload accepted")
			}
		})
	}
}

func TestChargingAccumulates(t *testing.T) {
	var billed time.Duration
	a, _ := suitePair(t, Fast, func(d time.Duration) { billed += d })
	costs := testCosts

	a.Sign([]byte("x"))
	if billed != costs.Sign {
		t.Fatalf("after Sign billed %v, want %v", billed, costs.Sign)
	}
	a.Verify(2, []byte("x"), []byte("y"))
	if billed != costs.Sign+costs.Verify {
		t.Fatalf("after Verify billed %v", billed)
	}
	a.ChargeMAC()
	a.ChargeVerifyMAC()
	a.ChargeVerify()
	want := costs.Sign + 2*costs.Verify + costs.MAC + costs.VerifyMAC
	if billed != want {
		t.Fatalf("billed %v, want %v", billed, want)
	}
	a.ChargeExec(10)
	want += 10 * costs.ExecTxn
	if billed != want {
		t.Fatalf("after ChargeExec billed %v, want %v", billed, want)
	}
}

func TestHashMatchesTypes(t *testing.T) {
	a, _ := suitePair(t, Fast, nil)
	payload := []byte("ledger block")
	if a.Hash(payload) != types.Hash(payload) {
		t.Error("suite hash differs from types.Hash")
	}
}

func TestFreeCostsBillNothing(t *testing.T) {
	var billed time.Duration
	dir := NewDirectory(Fast, []types.NodeID{1})
	s := NewSuite(dir, 1, FreeCosts(), func(d time.Duration) { billed += d })
	s.Sign([]byte("x"))
	s.ChargeExec(100)
	s.ChargeHash(4096)
	if billed != 0 {
		t.Fatalf("free costs billed %v", billed)
	}
}

func TestDirectoryDeterministicKeys(t *testing.T) {
	d1 := NewDirectory(Real, []types.NodeID{1, 2})
	d2 := NewDirectory(Real, []types.NodeID{1, 2})
	s1 := NewSuite(d1, 1, FreeCosts(), nil)
	s2 := NewSuite(d2, 2, FreeCosts(), nil)
	sig := s1.Sign([]byte("cross-directory"))
	if !s2.Verify(1, []byte("cross-directory"), sig) {
		t.Error("directories with same provisioning disagree on keys")
	}
	// The derivation is pinned: a node's public key is what every process,
	// and every earlier version of this package, derives for it.
	if got := fmt.Sprintf("%x", d2.keys[1].resolve().pub); got != "3fab9e8872fd9898a968620a67c163611f1da7ea76a713efa6e537ae2c24424d" {
		t.Errorf("node 1's public key = %s", got)
	}
}

// TestSuiteConcurrentUse exercises the Suite's concurrency contract: many
// goroutines signing, verifying and MACing through one suite (the fabric's
// input goroutines do exactly this). Run under -race, it catches regressions in
// the lazily-built CMAC cache.
func TestSuiteConcurrentUse(t *testing.T) {
	for _, mode := range []Mode{Real, Fast} {
		peers := []types.NodeID{1, 2, 3, 4, 5}
		dir := NewDirectory(mode, peers)
		s := NewSuite(dir, 1, FreeCosts(), nil)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				payload := []byte{byte(g), 'p'}
				for i := 0; i < 200; i++ {
					peer := peers[(g+i)%len(peers)]
					tag := s.MAC(peer, payload)
					if !s.VerifyMAC(peer, payload, tag) {
						t.Errorf("mode %v: MAC round-trip failed", mode)
						return
					}
					sig := s.Sign(payload)
					if !s.Verify(1, payload, sig) {
						t.Errorf("mode %v: signature round-trip failed", mode)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestDirectoryResolvesOnFirstUse: a directory derives no pair when it is
// built. Many goroutines signing as and verifying two of three provisioned
// nodes at once derive each of the two exactly once; the node nobody uses is
// never derived.
func TestDirectoryResolvesOnFirstUse(t *testing.T) {
	dir := NewDirectory(Real, []types.NodeID{1, 2, 3})
	for _, id := range []types.NodeID{1, 2, 3} {
		if n := dir.Derivations(id); n != 0 || dir.Resolved(id) {
			t.Fatalf("node %v derived %d times before any use", id, n)
		}
	}
	a, b := NewSuite(dir, 1, FreeCosts(), nil), NewSuite(dir, 2, FreeCosts(), nil)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			payload := []byte{byte(g)}
			signer, verifier, from := a, b, types.NodeID(1)
			if g%2 == 1 {
				signer, verifier, from = b, a, 2
			}
			for i := 0; i < 20; i++ {
				if !verifier.Verify(from, payload, signer.Sign(payload)) {
					t.Errorf("goroutine %d: valid signature rejected", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for id, want := range map[types.NodeID]int{1: 1, 2: 1, 3: 0} {
		if n := dir.Derivations(id); n != want {
			t.Errorf("node %v derived %d times, want %d", id, n, want)
		}
		if dir.Resolved(id) != (want == 1) {
			t.Errorf("node %v: Resolved = %v, want %v", id, dir.Resolved(id), want == 1)
		}
	}
	dir.Resolve(1, 3, 99) // 99 is not provisioned: skipped
	if dir.Derivations(1) != 1 || dir.Derivations(3) != 1 || dir.Resolved(99) {
		t.Errorf("Resolve: derivations 1:%d 3:%d, 99 resolved %v; want 1, 1, false",
			dir.Derivations(1), dir.Derivations(3), dir.Resolved(99))
	}
}

// TestDirectoryRejectsUnprovisioned: first-use resolution provisions
// nothing. A signer outside the directory cannot sign, its signatures do not
// verify, and a forged signature of a provisioned node is rejected.
func TestDirectoryRejectsUnprovisioned(t *testing.T) {
	dir := NewDirectory(Real, []types.NodeID{1, 2})
	verifier := NewSuite(dir, 2, FreeCosts(), nil)
	payload := []byte("pre-prepare view=0 seq=1")

	outsider := NewSuite(NewDirectory(Real, []types.NodeID{7}), 7, FreeCosts(), nil)
	if verifier.Verify(7, payload, outsider.Sign(payload)) {
		t.Error("signature of an unprovisioned node accepted")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("an unprovisioned node signed")
			}
		}()
		NewSuite(dir, 7, FreeCosts(), nil).Sign(payload)
	}()
	forged := make([]byte, 64)
	if verifier.Verify(1, payload, forged) {
		t.Error("forged signature accepted")
	}
	if verifier.Verify(1, payload, outsider.Sign(payload)) {
		t.Error("another key's signature accepted for node 1")
	}
	if dir.Resolved(7) {
		t.Error("an unprovisioned node was resolved")
	}
}

// TestFastDirectoryResolvesNothing: Fast mode has no pairs to derive.
func TestFastDirectoryResolvesNothing(t *testing.T) {
	dir := NewDirectory(Fast, []types.NodeID{1, 2})
	a, b := NewSuite(dir, 1, FreeCosts(), nil), NewSuite(dir, 2, FreeCosts(), nil)
	dir.Resolve(1, 2)
	if !b.Verify(1, []byte("x"), a.Sign([]byte("x"))) {
		t.Fatal("valid fast tag rejected")
	}
	for _, id := range []types.NodeID{1, 2} {
		if dir.Resolved(id) || dir.Derivations(id) != 0 {
			t.Errorf("fast mode derived node %v's pair", id)
		}
	}
}
