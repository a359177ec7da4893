package proto_test

import (
	"testing"
	"time"

	"resilientdb/internal/detsim"
	"resilientdb/internal/proto"
	"resilientdb/internal/types"
)

func TestReplyWireSize(t *testing.T) {
	r := &proto.Reply{TxnCount: 100}
	// 1.5 kB per 100-transaction batch (paper Section 4).
	if got := r.WireSize(); got < 1400 || got > 1700 {
		t.Errorf("reply-100 wire size = %d, want ≈1.5 kB", got)
	}
	if r.MsgType() != "reply" {
		t.Errorf("MsgType = %s", r.MsgType())
	}
}

type countHandler struct {
	got  int
	init func(proto.Env)
}

func (h *countHandler) InitEnv(env proto.Env) {
	if h.init != nil {
		h.init(env)
	}
}
func (h *countHandler) Receive(types.NodeID, types.Message) { h.got++ }

func TestMulticastSkipsSelf(t *testing.T) {
	net := detsim.New(detsim.Options{Seed: 1})
	hs := make([]*countHandler, 3)
	for i := range hs {
		hs[i] = &countHandler{}
		net.AddNode(types.NodeID(i), 0, hs[i])
	}
	hs[0].init = func(env proto.Env) {
		proto.Multicast(env, []types.NodeID{0, 1, 2}, &proto.Reply{})
	}
	net.RunUntil(time.Second)
	if hs[0].got != 0 {
		t.Errorf("self received %d", hs[0].got)
	}
	if hs[1].got != 1 || hs[2].got != 1 {
		t.Errorf("peers received %d, %d", hs[1].got, hs[2].got)
	}
}
