package resilientdb

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"resilientdb/internal/config"
	"resilientdb/internal/fabric"
	"resilientdb/internal/types"
)

// fullSpec sets every spec key to a value no default has.
func fullSpec(t *testing.T) *Options {
	t.Helper()
	replicas := make([]string, 10)
	for i := range replicas {
		replicas[i] = fmt.Sprintf(`{"listen": "r%d:1"}`, i)
	}
	replicas[0] = `{"listen": "r0:1", "rpc": "r0:2"}`
	spec, err := config.ParseClusterSpec([]byte(`{
	  "clusters": 2, "replicas_per_cluster": 5, "batch_size": 7,
	  "local_timeout": "1500ms", "remote_timeout": "2500ms", "emulate_wan": true,
	  "replicas": [` + strings.Join(replicas, ", ") + `],
	  "clients": ["c0:1", "c1:1"],
	  "provision_clients": 9,
	  "mempool": {"capacity": 11, "client_rate": 12.5, "client_burst": 13, "replay_window": 14},
	  "retention": {"data_dir": "/d", "segment_bytes": 15, "snapshot_interval": 16, "retain_segments": 3}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestEverySpecKeyReachesTheRuntime sets every spec key to a non-default
// value and checks that it arrives where the runtime reads it: a
// fabric.Config field (mempool.Config included), the address a joining
// process listens at or dials, or the batch size the command-line client
// submits. Every key must have a row, so a key that is
// parsed but not wired fails here, and every row's check must fail on a
// spec that leaves its key out.
func TestEverySpecKeyReachesTheRuntime(t *testing.T) {
	listenAs := func(o *Options, kind RoleKind, i int) string {
		listen, _, _, err := member(o, Role{Kind: kind, Index: i})
		if err != nil {
			return ""
		}
		return listen
	}
	rows := map[string]func(o *Options, cfg fabric.Config) bool{
		"clusters":             func(_ *Options, cfg fabric.Config) bool { return cfg.Topo.Clusters == 2 },
		"replicas_per_cluster": func(_ *Options, cfg fabric.Config) bool { return cfg.Topo.PerCluster == 5 },
		"batch_size":           func(o *Options, _ fabric.Config) bool { return o.ClientBatchSize() == 7 },
		"local_timeout":        func(_ *Options, cfg fabric.Config) bool { return cfg.LocalTimeout == 1500*time.Millisecond },
		"remote_timeout":       func(_ *Options, cfg fabric.Config) bool { return cfg.RemoteTimeout == 2500*time.Millisecond },
		"emulate_wan": func(_ *Options, cfg fabric.Config) bool {
			want := config.GoogleCloudProfile(2).OneWay(0, 1)
			return cfg.Latency != nil && want > 0 && cfg.Latency(0, types.NodeID(cfg.Topo.PerCluster)) == want
		},
		"replicas.listen": func(o *Options, _ fabric.Config) bool {
			return addressBook(o)(3) == "r3:1" && listenAs(o, ReplicaProcess, 3) == "r3:1"
		},
		"replicas.rpc": func(o *Options, _ fabric.Config) bool {
			_, rpcListen, _, err := member(o, Role{Kind: ReplicaProcess})
			return err == nil && rpcListen == "r0:2"
		},
		"clients": func(o *Options, _ fabric.Config) bool {
			return addressBook(o)(config.ClientID(1)) == "c1:1" && listenAs(o, ClientProcess, 1) == "c1:1"
		},
		"provision_clients":           func(_ *Options, cfg fabric.Config) bool { return cfg.Clients == 9 },
		"mempool.capacity":            func(_ *Options, cfg fabric.Config) bool { return cfg.Mempool.Capacity == 11 },
		"mempool.client_rate":         func(_ *Options, cfg fabric.Config) bool { return cfg.Mempool.PerClientRate == 12.5 },
		"mempool.client_burst":        func(_ *Options, cfg fabric.Config) bool { return cfg.Mempool.PerClientBurst == 13 },
		"mempool.replay_window":       func(_ *Options, cfg fabric.Config) bool { return cfg.Mempool.ReplayWindow == 14 },
		"retention.data_dir":          func(_ *Options, cfg fabric.Config) bool { return cfg.DataDir == "/d" },
		"retention.segment_bytes":     func(_ *Options, cfg fabric.Config) bool { return cfg.DiskSegmentBytes == 15 },
		"retention.snapshot_interval": func(_ *Options, cfg fabric.Config) bool { return cfg.SnapshotInterval == 16 },
		"retention.retain_segments":   func(_ *Options, cfg fabric.Config) bool { return cfg.RetainSegments == 3 },
	}

	keys := specKeys(reflect.TypeOf(Options{}), "")
	for _, k := range keys {
		if rows[k] == nil {
			t.Errorf("spec key %q has no row: where does it reach the runtime?", k)
		}
	}
	if len(rows) != len(keys) {
		t.Errorf("%d rows for %d spec keys %v", len(rows), len(keys), keys)
	}

	full := fullSpec(t)
	minimal := &Options{Clusters: 1, ReplicasPerCluster: 4}
	for k, arrived := range rows {
		if !arrived(full, fabricConfig(full)) {
			t.Errorf("spec key %q does not reach the runtime", k)
		}
		if arrived(minimal, fabricConfig(minimal)) {
			t.Errorf("row %q passes without its key: the check has no teeth", k)
		}
	}
}

// specKeys lists a spec type's JSON keys, leaves only, dotted by block.
func specKeys(typ reflect.Type, prefix string) []string {
	var out []string
	for i := 0; i < typ.NumField(); i++ {
		name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		if name == "-" || name == "" {
			continue
		}
		ft := typ.Field(i).Type
		if ft.Kind() == reflect.Slice {
			ft = ft.Elem()
		}
		if ft.Kind() == reflect.Struct {
			out = append(out, specKeys(ft, prefix+name+".")...)
			continue
		}
		out = append(out, prefix+name)
	}
	return out
}

// TestReadmeSpecParses parses the README's "Config-file deployment" example
// with the spec parser, so the documented file cannot drift from the code.
func TestReadmeSpecParses(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "### Config-file deployment")
	if !ok {
		t.Fatal(`README has no "Config-file deployment" section`)
	}
	_, block, ok := strings.Cut(section, "```json\n")
	block, _, closed := strings.Cut(block, "```")
	if !ok || !closed {
		t.Fatal(`README's "Config-file deployment" section has no JSON block`)
	}
	spec, err := config.ParseClusterSpec([]byte(block))
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.CheckAddressBook(); err != nil {
		t.Fatal(err)
	}
	// The example shows every key; a key missing from it is undocumented.
	var shown map[string]any
	if err := json.Unmarshal([]byte(block), &shown); err != nil {
		t.Fatal(err)
	}
	for _, k := range specKeys(reflect.TypeOf(Options{}), "") {
		top, _, _ := strings.Cut(k, ".")
		if _, ok := shown[top]; !ok {
			t.Errorf("README's example spec omits %q", top)
		}
	}
}
