package proto

import (
	"testing"
	"time"

	"resilientdb/internal/config"
	"resilientdb/internal/simnet"
	"resilientdb/internal/types"
)

func TestReplyWireSize(t *testing.T) {
	r := &Reply{TxnCount: 100}
	// 1.5 kB per 100-transaction batch (paper Section 4).
	if got := r.WireSize(); got < 1400 || got > 1700 {
		t.Errorf("reply-100 wire size = %d, want ≈1.5 kB", got)
	}
	if r.MsgType() != "reply" {
		t.Errorf("MsgType = %s", r.MsgType())
	}
}

type countHandler struct {
	env  *simnet.Env
	got  int
	init func(*simnet.Env)
}

func (h *countHandler) Init(env *simnet.Env) {
	h.env = env
	if h.init != nil {
		h.init(env)
	}
}
func (h *countHandler) Receive(types.NodeID, types.Message) { h.got++ }

func TestMulticastSkipsSelf(t *testing.T) {
	net := simnet.New(simnet.Options{Profile: config.UniformProfile(1, 0, 1000), Seed: 1})
	hs := make([]*countHandler, 3)
	for i := range hs {
		hs[i] = &countHandler{}
		net.AddNode(types.NodeID(i), 0, hs[i])
	}
	hs[0].init = func(env *simnet.Env) {
		Multicast(WrapSim(env), []types.NodeID{0, 1, 2}, &Reply{})
	}
	net.RunUntil(time.Second)
	if hs[0].got != 0 {
		t.Errorf("self received %d", hs[0].got)
	}
	if hs[1].got != 1 || hs[2].got != 1 {
		t.Errorf("peers received %d, %d", hs[1].got, hs[2].got)
	}
}

func TestWrapSimSatisfiesEnv(t *testing.T) {
	net := simnet.New(simnet.Options{Profile: config.UniformProfile(1, 0, 1000), Seed: 1})
	fired := false
	h := &countHandler{}
	h.init = func(env *simnet.Env) {
		e := WrapSim(env)
		if e.ID() != 0 {
			t.Errorf("ID = %v", e.ID())
		}
		tm := e.SetTimer(10*time.Millisecond, func() { fired = true })
		_ = tm
		if e.Suite() == nil || e.Rand() == nil {
			t.Error("suite or rand nil")
		}
	}
	net.AddNode(0, 0, h)
	net.RunUntil(time.Second)
	if !fired {
		t.Error("timer did not fire through the wrapper")
	}
}
