package crypto

import "resilientdb/internal/types"

// Derivations returns how many times id's key pair has been derived in d:
// 0 before its first use, 1 after, whatever the concurrency.
func (d *Directory) Derivations(id types.NodeID) int {
	if k := d.keys[id]; k != nil {
		return int(k.resolves.Load())
	}
	return 0
}
