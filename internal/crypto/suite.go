package crypto

import (
	"crypto/ed25519"
	"crypto/sha256"
	"crypto/subtle"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"resilientdb/internal/types"
)

// Mode selects between real primitives and fast cost-charged substitutes.
type Mode int

const (
	// Real computes every primitive (ED25519, AES-CMAC, SHA-256).
	Real Mode = iota
	// Fast substitutes cheap keyed hashes and charges the calibrated CPU
	// cost of the real primitive instead. Tags remain verifiable across
	// nodes; forging them is only as hard as knowing the signer ID, which is
	// acceptable because simulated Byzantine behaviour is scripted.
	Fast
)

// Directory holds the long-lived key material of every node in the system:
// an ED25519 keypair per node and pairwise symmetric keys for authenticated
// channels. In the permissioned setting the set of nodes is provisioned up
// front; each node's pair is resolved on first use — the first Sign by it or
// Verify of it, or a Resolve — and is the same pair whenever and wherever it
// is resolved. A process that hosts one replica of a large deployment thus
// derives its own pair and those of the nodes it hears from, not all.
type Directory struct {
	mode Mode
	keys map[types.NodeID]*nodeKeys // the provisioned nodes; immutable, nil in Fast mode
}

// nodeKeys is one provisioned node's pair, derived once, on first use.
type nodeKeys struct {
	id       types.NodeID
	once     sync.Once
	priv     ed25519.PrivateKey
	pub      ed25519.PublicKey
	resolves atomic.Int32 // derivations run: 0 or 1
}

func (k *nodeKeys) resolve() *nodeKeys {
	k.once.Do(func() {
		seed := sha256.Sum256([]byte(fmt.Sprintf("resilientdb-seed-%d", k.id)))
		k.priv = ed25519.NewKeyFromSeed(seed[:])
		k.pub = k.priv.Public().(ed25519.PublicKey)
		k.resolves.Add(1)
	})
	return k
}

// NewDirectory provisions the given nodes. No key is derived here (see
// Directory); in Fast mode none ever is.
func NewDirectory(mode Mode, nodes []types.NodeID) *Directory {
	d := &Directory{mode: mode}
	if mode == Real {
		d.keys = make(map[types.NodeID]*nodeKeys, len(nodes))
		for _, id := range nodes {
			d.keys[id] = &nodeKeys{id: id}
		}
	}
	return d
}

// Resolve derives the pairs of ids now, so that no later Sign or Verify of
// theirs pays for it; a node already resolved, or not provisioned, is
// skipped.
func (d *Directory) Resolve(ids ...types.NodeID) {
	for _, id := range ids {
		if k := d.keys[id]; k != nil {
			k.resolve()
		}
	}
}

// Resolved reports whether id's pair has been derived yet.
func (d *Directory) Resolved(id types.NodeID) bool {
	k := d.keys[id]
	return k != nil && k.resolves.Load() > 0
}

// pairKey derives the symmetric AES-128 key shared by nodes a and b.
func pairKey(a, b types.NodeID) []byte {
	if a > b {
		a, b = b, a
	}
	sum := sha256.Sum256([]byte(fmt.Sprintf("resilientdb-mac-%d-%d", a, b)))
	return sum[:16]
}

// Suite binds the directory to one node and, optionally, to a CPU-charging
// callback. Every protocol implementation performs its cryptography through
// a Suite; the network simulator installs a charger so each operation
// advances the node's virtual CPU clock.
//
// Concurrency contract: a Suite is safe for concurrent use by multiple
// goroutines provided the charge callback (if any) is itself concurrent-safe.
// Sign, Verify and Hash touch only immutable key material; MAC and VerifyMAC
// build per-peer CMAC states lazily, guarded by an internal mutex (a CMAC is
// immutable once built). The fabric relies on this: a node's input
// goroutines and its worker share one Suite.
type Suite struct {
	dir    *Directory
	id     types.NodeID
	own    *nodeKeys // id's entry in dir; nil when unprovisioned or in Fast mode
	costs  Costs
	charge func(time.Duration)

	mu    sync.Mutex // guards cmacs (lazily populated)
	cmacs map[types.NodeID]*CMAC

	signs, verifies atomic.Uint64 // Sign and Verify calls (see Ops)
}

// NewSuite returns a suite for node id. charge may be nil (no CPU
// accounting, e.g. in the real-time fabric where time is real).
func NewSuite(dir *Directory, id types.NodeID, costs Costs, charge func(time.Duration)) *Suite {
	return &Suite{dir: dir, id: id, own: dir.keys[id], costs: costs, charge: charge,
		cmacs: make(map[types.NodeID]*CMAC)}
}

// ID returns the node this suite signs for.
func (s *Suite) ID() types.NodeID { return s.id }

func (s *Suite) bill(d time.Duration) {
	if s.charge != nil && d > 0 {
		s.charge(d)
	}
}

// fastTag computes the Fast-mode stand-in for a signature by signer over
// payload: a truncated SHA-256 keyed by the signer identity.
func fastTag(signer types.NodeID, payload []byte) []byte {
	h := sha256.New()
	h.Write([]byte{'f', 's'})
	h.Write(types.U64Bytes(uint64(uint32(signer))))
	h.Write(payload)
	return h.Sum(nil)[:16]
}

// Ops returns how many signatures this suite has produced and how many it
// has checked: one count per Sign and per Verify call, in either mode. Every
// digital-signature operation of a node goes through its suite, so these are
// the node's ed25519 counts. Safe to call concurrently.
func (s *Suite) Ops() (signs, verifies uint64) { return s.signs.Load(), s.verifies.Load() }

// Sign produces a digital signature of payload by this node. A node that
// was not provisioned has no key to sign with: Sign panics.
func (s *Suite) Sign(payload []byte) []byte {
	s.signs.Add(1)
	s.bill(s.costs.Sign)
	if s.dir.mode == Real {
		if s.own == nil {
			panic(fmt.Sprintf("crypto: node %v has no provisioned key", s.id))
		}
		return ed25519.Sign(s.own.resolve().priv, payload)
	}
	return fastTag(s.id, payload)
}

// Verify reports whether sig is signer's signature over payload; never for
// a signer that was not provisioned.
func (s *Suite) Verify(signer types.NodeID, payload, sig []byte) bool {
	s.verifies.Add(1)
	s.bill(s.costs.Verify)
	if s.dir.mode == Real {
		k := s.dir.keys[signer]
		return k != nil && ed25519.Verify(k.resolve().pub, payload, sig)
	}
	want := fastTag(signer, payload)
	return len(sig) == len(want) && subtle.ConstantTimeCompare(want, sig) == 1
}

func (s *Suite) cmacFor(peer types.NodeID) *CMAC {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.cmacs[peer]
	if c == nil {
		var err error
		c, err = NewCMAC(pairKey(s.id, peer))
		if err != nil {
			panic("crypto: AES key setup: " + err.Error())
		}
		s.cmacs[peer] = c
	}
	return c
}

// MAC computes the authentication tag for a message to peer.
func (s *Suite) MAC(peer types.NodeID, payload []byte) []byte {
	s.bill(s.costs.MAC)
	if s.dir.mode == Real {
		tag := s.cmacFor(peer).Sum(payload)
		return tag[:]
	}
	return fastTag(s.id^peer, payload)
}

// VerifyMAC reports whether tag authenticates payload on the channel with
// peer.
func (s *Suite) VerifyMAC(peer types.NodeID, payload, tag []byte) bool {
	s.bill(s.costs.VerifyMAC)
	if s.dir.mode == Real {
		return s.cmacFor(peer).Verify(payload, tag)
	}
	want := fastTag(s.id^peer, payload)
	return len(tag) == len(want) && subtle.ConstantTimeCompare(want, tag) == 1
}

// Hash computes (and charges for) a SHA-256 digest of payload.
func (s *Suite) Hash(payload []byte) types.Digest {
	s.ChargeHash(len(payload))
	return types.Hash(payload)
}

// ChargeHash charges the CPU cost of hashing n bytes without hashing.
func (s *Suite) ChargeHash(n int) {
	if s.costs.HashPerKB > 0 {
		s.bill(s.costs.HashPerKB * time.Duration(n+1023) / 1024)
	}
}

// ChargeVerify charges the cost of verifying one signature without
// verifying it (used where simulated peers are known-honest but the CPU
// cost must still be modelled).
func (s *Suite) ChargeVerify() { s.bill(s.costs.Verify) }

// ChargeMAC charges the cost of producing one MAC tag without computing it.
// Protocol hot paths use this for the per-message authenticators whose
// actual bytes are irrelevant to a simulation's outcome.
func (s *Suite) ChargeMAC() { s.bill(s.costs.MAC) }

// ChargeVerifyMAC charges the cost of verifying one MAC tag.
func (s *Suite) ChargeVerifyMAC() { s.bill(s.costs.VerifyMAC) }

// ChargeExec charges the cost of applying n transactions to the store.
func (s *Suite) ChargeExec(n int) { s.bill(s.costs.ExecTxn * time.Duration(n)) }
