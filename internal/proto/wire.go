package proto

import (
	"resilientdb/internal/types"
)

// EncodeBody implements types.WireMessage.
func (r *Reply) EncodeBody(enc *types.Encoder) {
	enc.I32(int32(r.Client))
	enc.U64(r.ClientSeq)
	enc.I32(int32(r.Replica))
	enc.U64(r.View)
	enc.U32(uint32(r.TxnCount))
	enc.Digest(r.Result)
}

func decodeReply(dec *types.Decoder) types.Message {
	r := &Reply{}
	r.Client = types.NodeID(dec.I32())
	r.ClientSeq = dec.U64()
	r.Replica = types.NodeID(dec.I32())
	r.View = dec.U64()
	r.TxnCount = int(dec.U32())
	r.Result = dec.Digest()
	return r
}

func init() {
	types.RegisterMessage((*Reply)(nil).MsgType(), decodeReply, func() []types.Message {
		return []types.Message{
			&Reply{},
			&Reply{
				Client:    types.ClientIDBase + 1,
				ClientSeq: 12,
				Replica:   3,
				View:      7,
				TxnCount:  100,
				Result:    types.Hash([]byte("result")),
			},
		}
	})
}
