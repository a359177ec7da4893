package crypto

import (
	"sync"
	"testing"
	"time"

	"resilientdb/internal/types"
)

func suitePair(t *testing.T, mode Mode, charge func(time.Duration)) (*Suite, *Suite) {
	t.Helper()
	nodes := []types.NodeID{1, 2}
	dir := NewDirectory(mode, nodes)
	return NewSuite(dir, 1, DefaultCosts(), charge),
		NewSuite(dir, 2, DefaultCosts(), charge)
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
	costs := DefaultCosts()

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
