// Command resilientdb runs a ResilientDB fabric in one of two modes.
//
// In-process demo (default): a geo-emulated deployment processing a stream
// of transactions while reporting progress, optionally with a mid-run
// primary crash:
//
//	resilientdb [-clusters 2] [-replicas 4] [-batches 50] [-crash] [-wan]
//
// Multi-process cluster: with -listen, this process becomes one member of a
// deployment whose z×n replicas (and clients) run as separate OS processes
// connected over real TCP with the length-prefixed wire codec. Launch one
// process per replica and one per client, all sharing the same -peers and
// -clients address books:
//
//	resilientdb -listen :7000 -id 0 -peers :7000,:7001,...,:7007 -clients :7100,:7101
//	...                                                    (one per replica)
//	resilientdb -listen :7100 -client 0 -peers ... -clients ... -batches 50
//
// With -adversary one hosted replica (replica (0,0) in-process; the
// process's own replica in multi-process mode) runs a scripted Byzantine
// attack from internal/byzantine — equivocate, forge-shares, forge-votes,
// vc-spam, tamper-catchup, tamper-snapshots, or suppress — from startup. The
// deployment tolerates f Byzantine replicas per cluster, so a run with one
// adversary must still commit every batch; the final report counts the
// forged messages the honest replicas rejected and the badly signed votes
// they dropped from proofs.
//
// With -data-dir the replica persists its ledger to a segmented append-only
// block store in that directory and, when relaunched with the same flags,
// recovers from those files alone: a tail torn by the crash is truncated,
// the surviving prefix is re-verified certificate by certificate, and peers
// supply only the missing suffix. -segment-bytes and -group-commit tune the
// store, and -snapshot-interval / -retain-segments bound its history with
// checkpoint snapshots and segment GC (see the README's Operations section).
//
// A replica process serves until SIGINT/SIGTERM (or -serve elapses), then
// verifies its ledger and prints one final line:
//
//	replica 3: ledger height=107 head=ab12cd34 verified
//
// Identical heads across replicas demonstrate agreement. A client process
// submits -batches batches to its home cluster and prints:
//
//	client 1: committed 50/50 batches in 1.2s
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"resilientdb"
	"resilientdb/internal/config"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		msg := err.Error()
		if !strings.HasPrefix(msg, "resilientdb:") {
			msg = "resilientdb: " + msg
		}
		fmt.Fprintln(os.Stderr, msg)
		os.Exit(1)
	}
}

// run executes one process's role; it is the whole command, factored so the
// multi-process test can re-execute itself into any role.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("resilientdb", flag.ContinueOnError)
	clusters := fs.Int("clusters", 2, "number of clusters (regions)")
	replicas := fs.Int("replicas", 4, "replicas per cluster")
	batches := fs.Int("batches", 50, "batches to submit per client")
	batchSize := fs.Int("batch-size", 10, "transactions per batch")
	crash := fs.Bool("crash", false, "crash the cluster-0 primary mid-run (in-process mode)")
	wan := fs.Bool("wan", false, "emulate Table-1 WAN latencies between clusters")
	listen := fs.String("listen", "", "TCP listen address; enables multi-process mode")
	peers := fs.String("peers", "", "comma-separated listen addresses of all z×n replicas, in global order")
	clientAddrs := fs.String("clients", "", "comma-separated listen addresses of the client processes")
	id := fs.Int("id", -1, "global replica index hosted by this process (multi-process mode)")
	clientIdx := fs.Int("client", -1, "client index run by this process (multi-process mode)")
	serve := fs.Duration("serve", 0, "replica auto-shutdown after this duration (0: run until signal)")
	localTimeout := fs.Duration("local-timeout", 500*time.Millisecond, "local view-change timeout")
	remoteTimeout := fs.Duration("remote-timeout", time.Second, "remote view-change timeout")
	adversary := fs.String("adversary", "", "compromise one hosted replica with a scripted byzantine attack: equivocate, forge-shares, forge-votes, vc-spam, tamper-catchup, tamper-snapshots, or suppress")
	dataDir := fs.String("data-dir", "", "persist each hosted replica's ledger to a block store under this directory; a restarted process recovers from it")
	segmentBytes := fs.Int64("segment-bytes", 0, "block-store segment file size cap in bytes (0: 4 MiB); needs -data-dir")
	groupCommit := fs.Duration("group-commit", 0, "acknowledge after the OS write and fsync the block store on a timer at this interval (0: fsync, coalesced, before acknowledging); needs -data-dir")
	snapshotInterval := fs.Uint64("snapshot-interval", 0, "write a checkpoint snapshot of executed state every N rounds and GC ledger segments below it (0: disabled, history unbounded)")
	retainSegments := fs.Int("retain-segments", 0, "block-store segments to keep below the last durable checkpoint (0: 2); needs -snapshot-interval")
	provisionClients := fs.Int("provision-clients", 0, "client identities to provision signing keys for; all processes must agree (0: 64)")
	mempoolCap := fs.Int("mempool-cap", 0, "per-replica cap on admitted-but-unexecuted client requests (0: 4096)")
	clientRate := fs.Float64("client-rate", 0, "per-client admission rate limit in new requests/s (0: 512; negative disables)")
	clientBurst := fs.Int("client-burst", 0, "per-client admission burst allowance (0: 512)")
	replayWindow := fs.Int("replay-window", 0, "executed requests per client each replica remembers for ledger re-replies (0: 32)")
	rpcListen := fs.String("rpc", "", "serve the HTTP/JSON client front door for this process's first hosted replica on this address")
	cfgPath := fs.String("config", "", "cluster spec file (JSON): topology, address book, RPC listen addresses, and tuning; explicit flags override it")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *cfgPath != "" {
		if err := applyClusterSpec(fs, *cfgPath, listen, rpcListen, *id, *clientIdx); err != nil {
			return err
		}
	}

	disk := diskOptions{dir: *dataDir, segmentBytes: *segmentBytes, groupCommit: *groupCommit,
		snapshotInterval: *snapshotInterval, retainSegments: *retainSegments}
	adm := admissionOptions{clients: *provisionClients, capacity: *mempoolCap, rate: *clientRate, burst: *clientBurst, window: *replayWindow}
	if *listen == "" {
		return runInProcess(out, *clusters, *replicas, *batches, *batchSize, *crash, *wan, *localTimeout, *remoteTimeout, disk, adm, *adversary, *rpcListen)
	}

	net := &resilientdb.NetOptions{
		Listen:   *listen,
		Replicas: splitAddrs(*peers),
		Clients:  splitAddrs(*clientAddrs),
	}
	switch {
	case *id >= 0 && *clientIdx >= 0:
		return errors.New("pass either -id or -client, not both")
	case *id >= 0:
		net.LocalReplicas = []int{*id}
	case *clientIdx < 0:
		return errors.New("multi-process mode needs -id (replica) or -client (client)")
	default:
		// Fail fast on a client index with no reply address: replicas would
		// silently drop every reply and each Submit would run to timeout.
		if *clientIdx >= len(net.Clients) {
			return fmt.Errorf("client index %d needs an entry in -clients (got %d)",
				*clientIdx, len(net.Clients))
		}
	}

	opts := resilientdb.Options{
		Clusters:           *clusters,
		ReplicasPerCluster: *replicas,
		BatchSize:          *batchSize,
		EmulateWAN:         *wan,
		LocalTimeout:       *localTimeout,
		RemoteTimeout:      *remoteTimeout,
		DataDir:            disk.dir,
		DiskSegmentBytes:   disk.segmentBytes,
		DiskGroupCommit:    disk.groupCommit,
		SnapshotInterval:   disk.snapshotInterval,
		RetainSegments:     disk.retainSegments,
		Clients:            adm.clients,
		MempoolCapacity:    adm.capacity,
		ClientRate:         adm.rate,
		ClientBurst:        adm.burst,
		ReplayWindow:       adm.window,
		Net:                net,
		Adversary:          *adversary,
	}
	if *id >= 0 {
		opts.RPCListen = *rpcListen
	}
	db, err := resilientdb.Open(opts)
	if err != nil {
		return err
	}
	defer db.Close()

	if *id >= 0 {
		return runReplica(out, db, *id, *replicas, *serve)
	}
	return runClient(out, db, *clientIdx, *batches, *batchSize)
}

func splitAddrs(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

// applyClusterSpec fills flag values from a cluster spec file, so one
// provisioned JSON file drives every process of a deployment and the
// command line only selects the role (-id or -client). Flags the user set
// explicitly win over the spec — override a single process's knob without
// editing the shared file. The role's own addresses (consensus listen, RPC
// listen) are looked up from the spec's placement for -id / -client.
func applyClusterSpec(fs *flag.FlagSet, path string, listen, rpcListen *string, id, clientIdx int) error {
	spec, err := config.LoadClusterSpec(path)
	if err != nil {
		return err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	apply := func(name, value string) error {
		if set[name] || value == "" {
			return nil
		}
		return fs.Set(name, value)
	}
	nonZero := func(v string) string { // "" skips a knob the spec leaves default
		if v == "0" || v == "0s" {
			return ""
		}
		return v
	}
	steps := [][2]string{
		{"clusters", fmt.Sprint(spec.Clusters)},
		{"replicas", fmt.Sprint(spec.ReplicasPerCluster)},
		{"batch-size", nonZero(fmt.Sprint(spec.BatchSize))},
		{"local-timeout", nonZero(spec.LocalTimeout.Std().String())},
		{"remote-timeout", nonZero(spec.RemoteTimeout.Std().String())},
		{"peers", strings.Join(spec.ReplicaAddrs(), ",")},
		{"clients", strings.Join(spec.Clients, ",")},
		{"provision-clients", nonZero(fmt.Sprint(spec.ProvisionClients))},
		{"mempool-cap", nonZero(fmt.Sprint(spec.Mempool.Capacity))},
		{"client-rate", nonZero(fmt.Sprint(spec.Mempool.ClientRate))},
		{"client-burst", nonZero(fmt.Sprint(spec.Mempool.ClientBurst))},
		{"replay-window", nonZero(fmt.Sprint(spec.Mempool.ReplayWindow))},
		{"data-dir", spec.Retention.DataDir},
		{"segment-bytes", nonZero(fmt.Sprint(spec.Retention.SegmentBytes))},
		{"group-commit", nonZero(spec.Retention.GroupCommit.Std().String())},
		{"snapshot-interval", nonZero(fmt.Sprint(spec.Retention.SnapshotInterval))},
		{"retain-segments", nonZero(fmt.Sprint(spec.Retention.RetainSegments))},
	}
	for _, s := range steps {
		if err := apply(s[0], s[1]); err != nil {
			return fmt.Errorf("cluster spec %s: %s: %w", path, s[0], err)
		}
	}
	switch {
	case id >= 0:
		if id >= len(spec.Replicas) {
			return fmt.Errorf("cluster spec %s places %d replicas, -id %d is not one of them", path, len(spec.Replicas), id)
		}
		if !set["listen"] {
			*listen = spec.Replicas[id].Listen
		}
		if !set["rpc"] {
			*rpcListen = spec.Replicas[id].RPC
		}
	case clientIdx >= 0:
		if clientIdx >= len(spec.Clients) {
			return fmt.Errorf("cluster spec %s lists %d client addresses, -client %d is not one of them", path, len(spec.Clients), clientIdx)
		}
		if !set["listen"] {
			*listen = spec.Clients[clientIdx]
		}
	}
	return nil
}

// runReplica serves one replica until a signal (or -serve elapses), then
// verifies and reports its ledger.
func runReplica(out io.Writer, db *resilientdb.DB, id, perCluster int, serve time.Duration) error {
	fmt.Fprintf(out, "replica %d: serving on %s\n", id, db.ListenAddr())
	if rpc := db.RPCAddr(); rpc != "" {
		fmt.Fprintf(out, "replica %d: rpc on %s\n", id, rpc)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	if serve > 0 {
		select {
		case <-sig:
		case <-time.After(serve):
		}
	} else {
		<-sig
	}
	db.Close()

	led := db.ReplicaLedger(id/perCluster, id%perCluster)
	if led == nil {
		return fmt.Errorf("replica %d not hosted here", id)
	}
	if err := led.Verify(); err != nil {
		return fmt.Errorf("replica %d: ledger verify: %w", id, err)
	}
	fmt.Fprintf(out, "replica %d: ledger height=%d head=%s verified\n",
		id, led.Height(), led.Head().Short())
	printSnapshotStats(out, db)
	return nil
}

// runClient submits batches to the client's home cluster and reports how
// many committed.
func runClient(out io.Writer, db *resilientdb.DB, idx, batches, batchSize int) error {
	client := db.Client(idx)
	defer client.Close()
	start := time.Now()
	ok := 0
	for i := 0; i < batches; i++ {
		txns := make([]resilientdb.Transaction, batchSize)
		for j := range txns {
			txns[j] = resilientdb.Transaction{
				Key:   uint64(idx)<<32 | uint64(i*batchSize+j),
				Value: uint64(i),
			}
		}
		if err := client.Submit(txns, 30*time.Second); err == nil {
			ok++
		}
	}
	fmt.Fprintf(out, "client %d: committed %d/%d batches in %v\n",
		idx, ok, batches, time.Since(start).Round(time.Millisecond))
	if ok < batches {
		return fmt.Errorf("client %d: only %d/%d batches committed", idx, ok, batches)
	}
	return nil
}

// diskOptions groups the persistence flags threaded into resilientdb.Options.
type diskOptions struct {
	dir              string
	segmentBytes     int64
	groupCommit      time.Duration
	snapshotInterval uint64
	retainSegments   int
}

// admissionOptions groups the client-admission flags (identity provisioning
// and mempool tuning) threaded into resilientdb.Options.
type admissionOptions struct {
	clients  int
	capacity int
	rate     float64
	burst    int
	window   int
}

// runInProcess is the original single-process demo. With adversary set,
// replica (0,0) runs the named attack script from startup and the run must
// still complete: the deployment tolerates f=1 Byzantine replica per
// cluster, and the final line reports how many forged messages were
// rejected.
func runInProcess(out io.Writer, clusters, replicas, batches, batchSize int, crash, wan bool, localTimeout, remoteTimeout time.Duration, disk diskOptions, adm admissionOptions, adversary, rpcListen string) error {
	db, err := resilientdb.Open(resilientdb.Options{
		Clusters:           clusters,
		ReplicasPerCluster: replicas,
		BatchSize:          batchSize,
		EmulateWAN:         wan,
		LocalTimeout:       localTimeout,
		RemoteTimeout:      remoteTimeout,
		DataDir:            disk.dir,
		DiskSegmentBytes:   disk.segmentBytes,
		DiskGroupCommit:    disk.groupCommit,
		SnapshotInterval:   disk.snapshotInterval,
		RetainSegments:     disk.retainSegments,
		Clients:            adm.clients,
		MempoolCapacity:    adm.capacity,
		ClientRate:         adm.rate,
		ClientBurst:        adm.burst,
		ReplayWindow:       adm.window,
		Adversary:          adversary,
		RPCListen:          rpcListen,
	})
	if err != nil {
		return err
	}
	defer db.Close()
	z, n, f := db.Topology()
	fmt.Fprintf(out, "resilientdb: %d×%d replicas (f=%d per cluster), wan=%v\n", z, n, f, wan)
	if adversary != "" {
		fmt.Fprintf(out, "adversary: replica (0,0) runs %q\n", adversary)
	}

	done := make(chan int, clusters)
	for c := 0; c < clusters; c++ {
		c := c
		go func() {
			client := db.Client(c)
			defer client.Close()
			ok := 0
			for i := 0; i < batches; i++ {
				txns := make([]resilientdb.Transaction, batchSize)
				for j := range txns {
					txns[j] = resilientdb.Transaction{Key: uint64(c*1_000_000 + i*batchSize + j), Value: uint64(i)}
				}
				if err := client.Submit(txns, 30*time.Second); err == nil {
					ok++
				}
			}
			done <- ok
		}()
	}

	if crash {
		time.Sleep(300 * time.Millisecond)
		fmt.Fprintln(out, "crashing cluster-0 primary…")
		db.CrashReplica(0, 0)
	}

	start := time.Now()
	total := 0
	for c := 0; c < clusters; c++ {
		total += <-done
	}
	elapsed := time.Since(start)
	fmt.Fprintf(out, "committed %d/%d batches in %v\n", total, clusters*batches, elapsed.Round(time.Millisecond))

	time.Sleep(200 * time.Millisecond)
	db.Close()
	led := db.ReplicaLedger(0, 1)
	if err := led.Verify(); err != nil {
		return err
	}
	fmt.Fprintf(out, "ledger: %d blocks, head %s (verified)\n", led.Height(), led.Head().Short())
	printSnapshotStats(out, db)
	if adversary != "" {
		st := db.Stats()
		fmt.Fprintf(out, "adversary: %d forged messages rejected, %d badly signed votes dropped from proofs\n", st.VerifyReject, st.Crypto.BadVoteSigs)
	}
	return nil
}

// printSnapshotStats reports checkpoint/GC activity (and any block-store
// detachment) when the deployment produced some; a run without
// -snapshot-interval and without store failures prints nothing.
func printSnapshotStats(out io.Writer, db *resilientdb.DB) {
	snap := db.Stats().Snapshots
	if snap != (resilientdb.SnapshotStats{}) {
		fmt.Fprintf(out, "snapshots: %d written, %d served, %d installed, %d rejected; gc: %d segments (%d bytes) reclaimed, %d bytes on disk\n",
			snap.Written, snap.Served, snap.Installed, snap.Rejected,
			snap.SegmentsReclaimed, snap.BytesReclaimed, snap.DiskBytes)
	}
	if snap.StoreErrs > 0 {
		fmt.Fprintf(out, "warning: %d replica block store(s) detached after persistence failures (running memory-only)\n", snap.StoreErrs)
	}
}
