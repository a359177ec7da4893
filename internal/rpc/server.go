package rpc

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"resilientdb/internal/config"
	"resilientdb/internal/fabric"
	"resilientdb/internal/pbft"
	"resilientdb/internal/types"
)

// DefaultMaxBody bounds the POST /v1/submit request body. A batch of a few
// thousand transactions fits comfortably; anything larger is an abuse
// vector (the body is read before the signature can be checked).
const DefaultMaxBody = 1 << 20

// DefaultReadTimeout bounds how long GET /v1/read waits for the worker loop
// to reach the posted read closure.
const DefaultReadTimeout = 5 * time.Second

// Server is one replica's RPC front door: an HTTP/JSON surface over the
// fabric front-door APIs (Node.SubmitRequest, Node.RequestStatus,
// Node.ProvenRead) plus ledger and status reads. Submits run the same
// admission path as transport-delivered requests; bad signatures are
// rejected with 403 and counted in the node's VerifyReject drop counter.
type Server struct {
	node *fabric.Node
	topo config.Topology

	// MaxBody overrides DefaultMaxBody when set before Start.
	MaxBody int64
	// ReadTimeout overrides DefaultReadTimeout when set before Start.
	ReadTimeout time.Duration

	ln   net.Listener
	http *http.Server
}

// NewServer builds a server for one hosted replica. Call Start to listen.
func NewServer(node *fabric.Node, topo config.Topology) *Server {
	return &Server{node: node, topo: topo,
		MaxBody: DefaultMaxBody, ReadTimeout: DefaultReadTimeout}
}

// Start listens on addr (host:port; port 0 picks a free port) and serves in
// the background until Close. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("rpc: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.HandleFunc("GET /v1/block", s.handleBlock)
	mux.HandleFunc("GET /v1/read", s.handleRead)
	mux.HandleFunc("GET /v1/request", s.handleRequest)
	mux.HandleFunc("POST /v1/submit", s.handleSubmit)
	s.ln = ln
	s.http = &http.Server{Handler: mux}
	go s.http.Serve(ln)
	return ln.Addr().String(), nil
}

// Addr returns the bound listen address (empty before Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener and closes open connections. Idempotent.
func (s *Server) Close() error {
	if s.http == nil {
		return nil
	}
	return s.http.Close()
}

// writeJSON sends v as a JSON response body.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := s.node.ID()
	writeJSON(w, StatusJSON{
		Replica:    int32(id),
		Cluster:    int(s.topo.ClusterOf(id)),
		Height:     s.node.Height(),
		Round:      s.node.ExecutedRound(),
		Head:       encDigest(s.node.Head()),
		MempoolLen: s.node.MempoolLen(),
	})
}

func (s *Server) handleBlock(w http.ResponseWriter, r *http.Request) {
	h, err := strconv.ParseUint(r.URL.Query().Get("height"), 10, 64)
	if err != nil {
		http.Error(w, "rpc: bad height parameter", http.StatusBadRequest)
		return
	}
	blk, err := s.node.ShowBlock(h, s.ReadTimeout)
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	if blk == nil {
		http.Error(w, "rpc: no such block (beyond head, or pruned)", http.StatusNotFound)
		return
	}
	writeJSON(w, blockToJSON(blk))
}

func (s *Server) handleRead(w http.ResponseWriter, r *http.Request) {
	key, err := strconv.ParseUint(r.URL.Query().Get("key"), 10, 64)
	if err != nil {
		http.Error(w, "rpc: bad key parameter", http.StatusBadRequest)
		return
	}
	rs, err := s.node.ProvenRead(key, s.ReadTimeout)
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	writeJSON(w, readStateToJSON(rs))
}

func (s *Server) handleRequest(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	client, cerr := strconv.ParseInt(q.Get("client"), 10, 32)
	seq, serr := strconv.ParseUint(q.Get("seq"), 10, 64)
	if cerr != nil || serr != nil {
		http.Error(w, "rpc: bad client/seq parameters", http.StatusBadRequest)
		return
	}
	status, exec := s.node.RequestStatus(types.NodeID(client), seq)
	writeJSON(w, RequestStatusJSON{Status: status.String(), Executed: executedToJSON(exec)})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.MaxBody)
	var in SubmitJSON
	if err := json.NewDecoder(r.Body).Decode(&in); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("rpc: request body exceeds %d bytes", tooBig.Limit),
				http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "rpc: malformed submit body: "+err.Error(), http.StatusBadRequest)
		return
	}
	req := &pbft.Request{Batch: batchFromJSON(&in.Batch), Sig: in.Sig}
	verdict, exec, err := s.node.SubmitRequest(req)
	if err != nil {
		// Bad signature (already counted in the node's VerifyReject drops).
		http.Error(w, err.Error(), http.StatusForbidden)
		return
	}
	writeJSON(w, SubmitResultJSON{Verdict: verdict.String(), Executed: executedToJSON(exec)})
}
