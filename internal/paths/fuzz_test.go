package paths

import (
	"bytes"
	"testing"
)

// The decoders face frames off the wire: any prefix, mutation, or
// garbage must come back as an error, never a panic or over-read.

func FuzzDecodeRequest(f *testing.F) {
	valid := encodeRequest(3, &Ctx{Thread: "tin-0/t1"}, Request{
		Kind:  OpWrite,
		Value: 42,
		Data:  []byte("payload"),
	})
	f.Add(valid)
	f.Add(encodeRequest(0, &Ctx{}, Request{Kind: OpRead}))
	for i := 0; i < len(valid); i += 3 {
		f.Add(valid[:i]) // truncations
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	// Length fields claiming more bytes than the frame holds.
	huge := bytes.Clone(valid)
	huge[len(huge)-4] = 0xff
	f.Add(huge)

	f.Fuzz(func(t *testing.T, buf []byte) {
		target, ctx, req, err := decodeRequest(buf)
		if err != nil {
			return
		}
		// A successful decode must round-trip exactly: proof that every
		// byte was accounted for and nothing beyond buf was read.
		re := encodeRequest(target, &ctx, req)
		if !bytes.Equal(re, buf) {
			t.Fatalf("decode/encode mismatch:\n in  %x\n out %x", buf, re)
		}
	})
}

func FuzzDecodeReply(f *testing.F) {
	f.Add(encodeReply(nil, replyOK, Reply{Ret: 1, Value: -9, Data: []byte("result")}))
	f.Add(encodeReply(nil, replyOK, Reply{}))
	errFrame := encodeErrorReply(&RemoteError{Msg: "boom"})
	f.Add(errFrame)
	valid := encodeReply(nil, replyOK, Reply{Data: []byte("abcdef")})
	for i := 0; i < len(valid); i++ {
		f.Add(valid[:i])
	}
	f.Add([]byte{2})                   // unknown status byte
	f.Add([]byte{0, 0xff, 0xff, 0xff}) // short ok body
	huge := bytes.Clone(valid)
	huge[len(huge)-2] = 0xff
	f.Add(huge)

	f.Fuzz(func(t *testing.T, buf []byte) {
		rep, err := decodeReply(buf)
		if err != nil {
			if IsRemote(err) && len(buf) > 0 && buf[0] != replyAppError {
				t.Fatalf("RemoteError from a non-app-error frame %x", buf)
			}
			return
		}
		if !bytes.Equal(encodeReply(nil, replyOK, rep), buf) {
			t.Fatalf("decode/encode mismatch for %x", buf)
		}
	})
}
