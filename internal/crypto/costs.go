package crypto

import "time"

// Costs models the CPU time of each cryptographic operation. The network
// simulator charges these to a node's virtual CPU so that a compute-bound
// node (a PBFT primary verifying every request) saturates on the same
// signature work as in the paper.
//
// The defaults are calibrated to single-core timings of the primitives the
// paper uses (Crypto++ ED25519 on 8-core Skylake): ~25 µs per sign, ~65 µs
// per verify, single-digit µs for AES-CMAC over control messages.
type Costs struct {
	Sign      time.Duration // produce one ED25519 signature
	Verify    time.Duration // verify one ED25519 signature
	MAC       time.Duration // produce one AES-CMAC tag
	VerifyMAC time.Duration // verify one AES-CMAC tag
	HashPerKB time.Duration // SHA-256 over one kilobyte
	ExecTxn   time.Duration // apply one YCSB write to the store
}

// DefaultCosts returns the calibrated cost model used by all experiments.
func DefaultCosts() Costs {
	return Costs{
		Sign:      25 * time.Microsecond,
		Verify:    65 * time.Microsecond,
		MAC:       2 * time.Microsecond,
		VerifyMAC: 2 * time.Microsecond,
		HashPerKB: 3 * time.Microsecond,
		ExecTxn:   500 * time.Nanosecond,
	}
}

// FreeCosts returns a zero cost model (useful in unit tests where virtual
// compute time is irrelevant).
func FreeCosts() Costs { return Costs{} }
