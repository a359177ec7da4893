package config

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"
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

// MempoolSpec is the cluster spec's client-admission tuning block. Zero
// fields select the internal/mempool defaults.
type MempoolSpec struct {
	// Capacity caps admitted-but-unexecuted requests per replica (0: 4096).
	Capacity int `json:"capacity,omitempty"`
	// ClientRate limits new admissions per client in requests/s (0: 512;
	// negative disables).
	ClientRate float64 `json:"client_rate,omitempty"`
	// ClientBurst is the rate limiter's burst allowance (0: 512).
	ClientBurst int `json:"client_burst,omitempty"`
	// ReplayWindow is how many executed requests per client each replica
	// remembers for ledger re-replies (0: 32).
	ReplayWindow int `json:"replay_window,omitempty"`
}

// RetentionSpec is the cluster spec's persistence and history-bounding
// block. An empty DataDir keeps ledgers in memory only.
type RetentionSpec struct {
	// DataDir roots each hosted replica's durable block store. Processes on
	// different machines may use the same path; processes sharing a machine
	// need distinct paths.
	DataDir string `json:"data_dir,omitempty"`
	// SegmentBytes caps one block-store segment file (0: 4 MiB).
	SegmentBytes int64 `json:"segment_bytes,omitempty"`
	// GroupCommit fsyncs the block store on a timer at this interval,
	// acknowledging batches before they are durable (0: fsync, coalesced,
	// before acknowledging).
	GroupCommit Duration `json:"group_commit,omitempty"`
	// SnapshotInterval writes a checkpoint snapshot every N rounds and GCs
	// ledger segments below it (0: history unbounded).
	SnapshotInterval uint64 `json:"snapshot_interval,omitempty"`
	// RetainSegments is how many segments snapshot GC keeps below the last
	// durable checkpoint (0: 2).
	RetainSegments int `json:"retain_segments,omitempty"`
}

// ClusterSpec is a whole deployment in one JSON file: topology, the address
// book every process must agree on, and the shared tuning knobs. Each
// process of the deployment loads the same file and is told only which role
// it plays (-id or -client); everything else — peer addresses, RPC listen
// addresses, timeouts, retention, admission — comes from the spec, so the
// file can be provisioned once and shipped to every machine.
type ClusterSpec struct {
	// Clusters is the number of regions (z ≥ 1).
	Clusters int `json:"clusters"`
	// ReplicasPerCluster is n per region (n ≥ 4).
	ReplicasPerCluster int `json:"replicas_per_cluster"`
	// BatchSize groups client transactions per consensus decision (0: the
	// deployment default).
	BatchSize int `json:"batch_size,omitempty"`
	// LocalTimeout tunes local view-change failure detection (0: default).
	LocalTimeout Duration `json:"local_timeout,omitempty"`
	// RemoteTimeout is the remote failure-detection base timeout (0:
	// default).
	RemoteTimeout Duration `json:"remote_timeout,omitempty"`
	// Replicas is the address book for the z×n replicas in global order:
	// Replicas[i] places global replica i (cluster i/n, local index i%n).
	Replicas []ReplicaSpec `json:"replicas"`
	// Clients maps client index to the listen address of the process
	// hosting that client, so replicas can route replies.
	Clients []string `json:"clients,omitempty"`
	// ProvisionClients is how many client identities get signing keys (0:
	// 64). Must be at least len(Clients).
	ProvisionClients int `json:"provision_clients,omitempty"`
	// Mempool tunes client admission.
	Mempool MempoolSpec `json:"mempool,omitempty"`
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

// Validate checks the spec's internal consistency: a plausible topology, a
// complete replica address book, and a provisioned identity for every
// listed client.
func (s *ClusterSpec) Validate() error {
	if s.Clusters < 1 {
		return fmt.Errorf("config: cluster spec needs clusters ≥ 1, got %d", s.Clusters)
	}
	if s.ReplicasPerCluster < 4 {
		return fmt.Errorf("config: cluster spec needs replicas_per_cluster ≥ 4 (f ≥ 1), got %d", s.ReplicasPerCluster)
	}
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
	if s.ProvisionClients > 0 && len(s.Clients) > s.ProvisionClients {
		return fmt.Errorf("config: %d client addresses but only %d provisioned identities",
			len(s.Clients), s.ProvisionClients)
	}
	return nil
}

// Topology returns the spec's deployment shape.
func (s *ClusterSpec) Topology() Topology {
	return NewTopology(s.Clusters, s.ReplicasPerCluster)
}

// ReplicaAddrs returns the consensus listen addresses in global replica
// order (the flat address book the transport layer wants).
func (s *ClusterSpec) ReplicaAddrs() []string {
	out := make([]string, len(s.Replicas))
	for i, r := range s.Replicas {
		out[i] = r.Listen
	}
	return out
}
