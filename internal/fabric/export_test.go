package fabric

import "resilientdb/internal/types"

// InputWorkers exposes inputWorkers to the package's external tests.
var InputWorkers = inputWorkers

// KeyResolved reports whether the fabric's key directory has derived id's
// key pair.
func (f *Fabric) KeyResolved(id types.NodeID) bool { return f.dir.Resolved(id) }
