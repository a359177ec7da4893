package crypto

import "time"

// Costs models the CPU time of each cryptographic operation. The network
// simulator charges these to a node's virtual CPU so that a compute-bound
// node (a PBFT primary verifying every request) saturates on the same
// signature work as in the paper.
//
// The one table the experiments run on is bench.BenchCosts.
type Costs struct {
	Sign      time.Duration // produce one ED25519 signature
	Verify    time.Duration // verify one ED25519 signature
	MAC       time.Duration // produce one AES-CMAC tag
	VerifyMAC time.Duration // verify one AES-CMAC tag
	HashPerKB time.Duration // SHA-256 over one kilobyte
	ExecTxn   time.Duration // apply one YCSB write to the store
}

// FreeCosts returns a zero cost model (useful in unit tests where virtual
// compute time is irrelevant).
func FreeCosts() Costs { return Costs{} }
