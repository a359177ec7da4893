// Command resilientdb runs a ResilientDB deployment described by a cluster
// spec (internal/config.ClusterSpec): one JSON file holding the topology, the
// address book and every tuning knob. Flags only say what this process does.
//
// In-process demo: without -config the command runs a built-in 2×4 spec;
// with -config and no role it runs the whole spec. Either way every replica
// lives in this process, processing a stream of transactions while
// reporting progress, optionally with a mid-run primary crash:
//
//	resilientdb [-config cluster.json] [-batches 50] [-crash]
//
// Multi-process cluster: with -id or -client, this process becomes one
// member of the spec's deployment, whose z×n replicas (and clients) run as
// separate OS processes connected over real TCP with the length-prefixed
// wire codec. Every process loads the same spec and listens at its own
// entry's address:
//
//	resilientdb -config cluster.json -id 0        (one per replica)
//	resilientdb -config cluster.json -client 0 -batches 50
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
// With the spec's retention.data_dir set, each replica persists its ledger
// to a segmented append-only block store under data_dir/node-<id> and, when
// relaunched, recovers from those files alone: a tail torn by the crash is
// truncated, the surviving prefix is re-verified certificate by
// certificate, and peers supply only the missing suffix (see the README's
// Operations section for the retention keys).
//
// A replica process serves until SIGINT/SIGTERM (or -serve elapses), then
// verifies its ledger and prints one final line:
//
//	replica 3: ledger height=107 head=ab12cd34 verified
//
// Identical heads across replicas demonstrate agreement. A client process
// submits -batches batches of batch_size transactions to its home cluster
// and prints:
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

// demoSpec is the deployment the command runs without -config.
var demoSpec = resilientdb.Options{
	Clusters:           2,
	ReplicasPerCluster: 4,
	BatchSize:          10,
	LocalTimeout:       resilientdb.Duration(500 * time.Millisecond),
	RemoteTimeout:      resilientdb.Duration(time.Second),
}

// run executes one process's role; it is the whole command, factored so the
// multi-process test can re-execute itself into any role.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("resilientdb", flag.ContinueOnError)
	cfgPath := fs.String("config", "", "cluster spec file (JSON) describing the deployment (default: a built-in in-process 2×4 spec)")
	id := fs.Int("id", -1, "run global replica `i` of the -config spec in this process, joined to the others over TCP")
	clientIdx := fs.Int("client", -1, "run client `c` of the -config spec in this process, joined to the replicas over TCP")
	batches := fs.Int("batches", 50, "batches each client submits")
	serve := fs.Duration("serve", 0, "replica process: shut down after this duration (0: run until signal)")
	crash := fs.Bool("crash", false, "crash the cluster-0 primary mid-run (in-process)")
	adversary := fs.String("adversary", "", "compromise one hosted replica with a scripted byzantine attack: equivocate, forge-shares, forge-votes, vc-spam, tamper-catchup, tamper-snapshots, or suppress")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	spec := demoSpec
	if *cfgPath != "" {
		loaded, err := config.LoadClusterSpec(*cfgPath)
		if err != nil {
			return err
		}
		spec = *loaded
	}
	role := resilientdb.Role{Adversary: *adversary}
	switch {
	case *id >= 0 && *clientIdx >= 0:
		return errors.New("pass either -id or -client, not both")
	case *id >= 0:
		role.Kind, role.Index = resilientdb.ReplicaProcess, *id
	case *clientIdx >= 0:
		role.Kind, role.Index = resilientdb.ClientProcess, *clientIdx
	}
	if role.Kind != resilientdb.InProcess && *cfgPath == "" {
		return errors.New("-id and -client join the deployment of a -config spec")
	}

	db, err := resilientdb.OpenRole(spec, role)
	if err != nil {
		return err
	}
	defer db.Close()
	batchSize := spec.ClientBatchSize()
	switch role.Kind {
	case resilientdb.ReplicaProcess:
		return runReplica(out, db, *id, *serve)
	case resilientdb.ClientProcess:
		return runClient(out, db, *clientIdx, *batches, batchSize)
	}
	return runInProcess(out, db, spec.EmulateWAN, *batches, batchSize, *crash, *adversary)
}

// runReplica serves one replica until a signal (or -serve elapses), then
// verifies and reports its ledger.
func runReplica(out io.Writer, db *resilientdb.DB, id int, serve time.Duration) error {
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

	_, perCluster, _ := db.Topology()
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

// runInProcess is the single-process demo over an open deployment. With an
// adversary, replica (0,0) runs the named attack script from startup and the
// run must still complete: the deployment tolerates f=1 Byzantine replica
// per cluster, and the final line reports how many forged messages were
// rejected.
func runInProcess(out io.Writer, db *resilientdb.DB, wan bool, batches, batchSize int, crash bool, adversary string) error {
	z, n, f := db.Topology()
	fmt.Fprintf(out, "resilientdb: %d×%d replicas (f=%d per cluster), wan=%v\n", z, n, f, wan)
	if adversary != "" {
		fmt.Fprintf(out, "adversary: replica (0,0) runs %q\n", adversary)
	}

	done := make(chan int, z)
	for c := 0; c < z; c++ {
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
	for c := 0; c < z; c++ {
		total += <-done
	}
	elapsed := time.Since(start)
	fmt.Fprintf(out, "committed %d/%d batches in %v\n", total, z*batches, elapsed.Round(time.Millisecond))

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
// retention.snapshot_interval and without store failures prints nothing.
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
