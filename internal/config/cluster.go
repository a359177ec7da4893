package config

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"resilientdb/internal/mempool"
)

// Duration is a time.Duration that travels through JSON as a human-readable
// string ("500ms", "2s"). A bare JSON number is also accepted and read as
// nanoseconds, so specs generated programmatically round-trip too.
type Duration time.Duration

// MarshalJSON renders the duration as a string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON parses either a duration string or a nanosecond number.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("config: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("config: duration must be a string like \"500ms\" or a nanosecond number, got %s", b)
	}
	*d = Duration(n)
	return nil
}

// Std returns the duration as a time.Duration.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// The defaults an omitted (zero) spec key selects. fabric.Open applies them
// to the zero fields of a fabric.Config, so every way of starting a
// deployment — a spec file, the root API, a fabric.Config built directly —
// gets the same ones. DefaultBatchSize is the exception: only the
// command-line client reads it, through ClientBatchSize.
const (
	// DefaultBatchSize is the number of transactions per batch the
	// command-line client signs and submits, as in the paper.
	DefaultBatchSize = 100
	// DefaultLocalTimeout is the local view-change timeout.
	DefaultLocalTimeout = 2 * time.Second
	// DefaultRemoteTimeout is the base remote-cluster failure-detection
	// timeout.
	DefaultRemoteTimeout = 3 * time.Second
	// DefaultProvisionClients is how many client identities get signing keys.
	DefaultProvisionClients = 64
	// DefaultRetainSegments is how many block-store segments snapshot GC
	// keeps below the last durable checkpoint.
	DefaultRetainSegments = 2
)

// ReplicaSpec places one replica of a cluster spec: where its consensus
// transport listens and, optionally, where its client-facing RPC server
// listens.
type ReplicaSpec struct {
	// Listen is the replica's TCP listen address for the consensus
	// transport ("host:port").
	Listen string `json:"listen"`
	// RPC, when non-empty, is where the replica's HTTP/JSON front door
	// (internal/rpc) listens. Empty disables RPC for this replica.
	RPC string `json:"rpc,omitempty"`
}

// RetentionSpec is the cluster spec's persistence and history-bounding
// block. An empty DataDir keeps ledgers in memory only.
type RetentionSpec struct {
	// DataDir roots each hosted replica's durable block store; replica i
	// keeps its files under DataDir/node-<i>, so processes sharing a
	// machine may share the path. A replica acknowledges a batch only once
	// the block holding it is fsynced.
	DataDir string `json:"data_dir,omitempty"`
	// SegmentBytes caps one block-store segment file (0: 4 MiB).
	SegmentBytes int64 `json:"segment_bytes,omitempty"`
	// SnapshotInterval writes a checkpoint snapshot every N rounds and GCs
	// ledger segments below it (0: history unbounded).
	SnapshotInterval uint64 `json:"snapshot_interval,omitempty"`
	// RetainSegments is how many segments snapshot GC keeps below the last
	// durable checkpoint (0: DefaultRetainSegments).
	RetainSegments int `json:"retain_segments,omitempty"`
}

// ClusterSpec is a whole deployment: topology, the address book every
// process must agree on, and the shared tuning knobs. It is the only place a
// deployment knob is declared. A spec file is this struct in JSON; each
// process of a multi-process deployment loads the same file and is told only
// which role it plays, so the file can be provisioned once and shipped to
// every machine. Zero fields select the Default* constants (or the
// internal/mempool defaults for the mempool block).
type ClusterSpec struct {
	// Clusters is the number of regions (1 ≤ z ≤ NumRegions).
	Clusters int `json:"clusters"`
	// ReplicasPerCluster is n per region (n ≥ 4; tolerates f = ⌊(n−1)/3⌋
	// Byzantine replicas per cluster).
	ReplicasPerCluster int `json:"replicas_per_cluster"`
	// BatchSize is the number of transactions per batch the command-line
	// client (cmd/resilientdb) submits (0: DefaultBatchSize). Replicas do not
	// read it: a client's signed batch is the unit of consensus as sent.
	BatchSize int `json:"batch_size,omitempty"`
	// LocalTimeout tunes local view-change failure detection (0:
	// DefaultLocalTimeout).
	LocalTimeout Duration `json:"local_timeout,omitempty"`
	// RemoteTimeout is the remote failure-detection base timeout; it backs
	// off exponentially on repeat (0: DefaultRemoteTimeout).
	RemoteTimeout Duration `json:"remote_timeout,omitempty"`
	// EmulateWAN injects the paper's Table 1 one-way latencies between
	// clusters (cluster c sits in region c), in-process or over TCP.
	EmulateWAN bool `json:"emulate_wan,omitempty"`
	// Replicas is the address book for the z×n replicas in global order:
	// Replicas[i] places global replica i (cluster i/n, local index i%n).
	// Only a process that joins a deployment over TCP uses it.
	Replicas []ReplicaSpec `json:"replicas,omitempty"`
	// Clients maps client index to the listen address of the process
	// hosting that client, so replicas can route replies.
	Clients []string `json:"clients,omitempty"`
	// ProvisionClients is how many client identities get signing keys (0:
	// DefaultProvisionClients). Every process must agree on it: the key
	// directory is derived from it, and replicas reject requests from
	// unprovisioned identities. Must be at least len(Clients).
	ProvisionClients int `json:"provision_clients,omitempty"`
	// Mempool tunes client admission.
	Mempool mempool.Config `json:"mempool,omitempty"`
	// Retention tunes persistence and history bounding.
	Retention RetentionSpec `json:"retention,omitempty"`
}

// ParseClusterSpec decodes and validates a cluster spec. Unknown fields are
// rejected — a typo in a deployment file should fail loudly at startup, not
// silently fall back to a default.
func ParseClusterSpec(data []byte) (*ClusterSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	spec := &ClusterSpec{}
	if err := dec.Decode(spec); err != nil {
		return nil, fmt.Errorf("config: bad cluster spec: %w", err)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// LoadClusterSpec reads and parses a cluster spec file.
func LoadClusterSpec(path string) (*ClusterSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("config: read cluster spec: %w", err)
	}
	spec, err := ParseClusterSpec(data)
	if err != nil {
		return nil, fmt.Errorf("config: %s: %w", path, err)
	}
	return spec, nil
}

// Validate checks what every deployment needs, wherever its processes run:
// a topology within the regions of the WAN profile, and a provisioned
// identity for every listed client. The replica address book is checked by
// CheckAddressBook, where it is used.
func (s *ClusterSpec) Validate() error {
	if s.Clusters < 1 || s.Clusters > int(NumRegions) {
		return fmt.Errorf("config: cluster spec needs 1 ≤ clusters ≤ %d (one per region), got %d", NumRegions, s.Clusters)
	}
	if s.ReplicasPerCluster < 4 {
		return fmt.Errorf("config: cluster spec needs replicas_per_cluster ≥ 4 (f ≥ 1), got %d", s.ReplicasPerCluster)
	}
	if len(s.Clients) > s.ProvisionedClients() {
		return fmt.Errorf("config: %d client addresses but only %d provisioned identities",
			len(s.Clients), s.ProvisionedClients())
	}
	return nil
}

// CheckAddressBook checks the replica address book a process joining the
// deployment over TCP dials: exactly z×n entries, each with a listen address.
func (s *ClusterSpec) CheckAddressBook() error {
	want := s.Clusters * s.ReplicasPerCluster
	if len(s.Replicas) != want {
		return fmt.Errorf("config: cluster spec lists %d replicas, topology %d×%d needs %d",
			len(s.Replicas), s.Clusters, s.ReplicasPerCluster, want)
	}
	for i, r := range s.Replicas {
		if r.Listen == "" {
			return fmt.Errorf("config: replica %d has no listen address", i)
		}
	}
	return nil
}

// ProvisionedClients is the number of client identities the deployment
// provisions keys for: ProvisionClients, or DefaultProvisionClients when
// that is zero. Valid client indices are [0, ProvisionedClients()).
func (s *ClusterSpec) ProvisionedClients() int {
	if s.ProvisionClients > 0 {
		return s.ProvisionClients
	}
	return DefaultProvisionClients
}

// ClientBatchSize is the number of transactions per batch the command-line
// client submits: BatchSize, or DefaultBatchSize when that is zero.
func (s *ClusterSpec) ClientBatchSize() int {
	if s.BatchSize > 0 {
		return s.BatchSize
	}
	return DefaultBatchSize
}

// Topology returns the spec's deployment shape.
func (s *ClusterSpec) Topology() Topology {
	return NewTopology(s.Clusters, s.ReplicasPerCluster)
}
