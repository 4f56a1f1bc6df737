package orb

import (
	"errors"
	"testing"

	"mead/internal/cdr"
	"mead/internal/giop"
)

// TestSettleReply drives the one reply-disposition function through every
// reply status (plus bodies that do not decode) and checks, besides the
// decision, that it gave back the decoder and the message buffer it was
// handed — each exactly once.
func TestSettleReply(t *testing.T) {
	fwdIOR := giop.NewIOR(typeID, "10.1.2.3", 4711, clockKey)
	sysEx := &giop.SystemException{RepoID: giop.RepoTransient, Minor: 7, Completed: giop.CompletedNo}
	readString := func(d *cdr.Decoder) error {
		_, err := d.ReadString()
		return err
	}
	truncated := func(e *cdr.Encoder) { e.WriteULong(1 << 20) } // a length prefix with nothing behind it

	cases := []struct {
		name       string
		status     giop.ReplyStatus
		body       func(*cdr.Encoder)
		readResult func(*cdr.Decoder) error
		want       replyAction
		check      func(t *testing.T, fwd giop.IOR, err error)
	}{
		{"no exception", giop.ReplyNoException,
			func(e *cdr.Encoder) { e.WriteString("result") }, readString, replyDone,
			func(t *testing.T, _ giop.IOR, err error) {
				if err != nil {
					t.Fatal(err)
				}
			}},
		{"no exception, result ignored", giop.ReplyNoException, nil, nil, replyDone,
			func(t *testing.T, _ giop.IOR, err error) {
				if err != nil {
					t.Fatal(err)
				}
			}},
		{"no exception, corrupt result", giop.ReplyNoException, truncated, readString, replyDone,
			func(t *testing.T, _ giop.IOR, err error) {
				if !errors.Is(err, cdr.ErrLengthOverflow) {
					t.Fatalf("err = %v, want a wrapped cdr.ErrLengthOverflow", err)
				}
			}},
		{"user exception", giop.ReplyUserException,
			func(e *cdr.Encoder) { e.WriteString("IDL:mead/Busy:1.0") }, readString, replyDone,
			func(t *testing.T, _ giop.IOR, err error) {
				var ue *UserException
				if !errors.As(err, &ue) || ue.RepoID != "IDL:mead/Busy:1.0" {
					t.Fatalf("err = %v, want the Busy user exception", err)
				}
			}},
		{"system exception", giop.ReplySystemException,
			func(e *cdr.Encoder) { giop.EncodeSystemException(e, sysEx) }, readString, replyDone,
			func(t *testing.T, _ giop.IOR, err error) {
				var se *giop.SystemException
				if !errors.As(err, &se) || *se != *sysEx {
					t.Fatalf("err = %v, want %v", err, sysEx)
				}
			}},
		{"system exception, corrupt body", giop.ReplySystemException, truncated, readString, replyDone,
			func(t *testing.T, _ giop.IOR, err error) {
				var se *giop.SystemException
				if err == nil || errors.As(err, &se) {
					t.Fatalf("err = %v, want a decode error", err)
				}
			}},
		{"location forward", giop.ReplyLocationForward,
			func(e *cdr.Encoder) { giop.EncodeIOR(e, fwdIOR) }, readString, replyForward,
			func(t *testing.T, fwd giop.IOR, err error) {
				if err != nil || fwd.String() != fwdIOR.String() {
					t.Fatalf("forward = %v, %v; want %v", fwd, err, fwdIOR)
				}
			}},
		{"location forward perm", giop.ReplyLocationForwardPerm,
			func(e *cdr.Encoder) { giop.EncodeIOR(e, fwdIOR) }, nil, replyForward,
			func(t *testing.T, fwd giop.IOR, err error) {
				if err != nil || fwd.String() != fwdIOR.String() {
					t.Fatalf("forward = %v, %v; want %v", fwd, err, fwdIOR)
				}
			}},
		{"location forward, corrupt IOR", giop.ReplyLocationForward, truncated, readString, replyDone,
			func(t *testing.T, _ giop.IOR, err error) {
				if err == nil {
					t.Fatal("corrupt forward IOR accepted")
				}
			}},
		{"needs addressing mode", giop.ReplyNeedsAddressingMode, nil, readString, replyRetransmit,
			func(t *testing.T, _ giop.IOR, err error) {
				if err != nil {
					t.Fatal(err)
				}
			}},
		{"unknown status", giop.ReplyStatus(6), nil, readString, replyDone,
			func(t *testing.T, _ giop.IOR, err error) {
				var se *giop.SystemException
				if !errors.As(err, &se) || se.RepoID != giop.RepoInternal || se.Minor != 21 {
					t.Fatalf("err = %v, want INTERNAL minor 21", err)
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// DecodeReply itself refuses a status it does not know, so the
			// wire form always carries a valid one; settleReply is handed
			// tc.status.
			wire := giop.EncodeReply(cdr.BigEndian, giop.ReplyHeader{RequestID: 9, Status: giop.ReplyNoException}, tc.body)
			mb := giop.GetMsgBuf(len(wire) - giop.HeaderLen)
			copy(mb.Bytes(), wire[giop.HeaderLen:])
			_, d, err := giop.DecodeReply(cdr.BigEndian, mb.Bytes())
			if err != nil {
				t.Fatal(err)
			}

			action, fwd, err := settleReply(tc.status, "op", d, mb, tc.readResult)
			if action != tc.want {
				t.Fatalf("action = %d, want %d (err %v)", action, tc.want, err)
			}
			tc.check(t, fwd, err)

			// Given back: Release empties a MsgBuf and takes a decoder's
			// buffer away (so one that had read the reply header is left
			// with a negative remainder).
			if len(mb.Bytes()) != 0 {
				t.Error("message buffer not released")
			}
			if d.Remaining() >= 0 {
				t.Error("decoder not released")
			}
			// Given back once: a second Release would leave the object in
			// its pool twice, and it would come out twice.
			drawnD := map[*cdr.Decoder]bool{}
			drawnMB := map[*giop.MsgBuf]bool{}
			for i := 0; i < 4; i++ {
				pd, pmb := cdr.GetDecoder(nil, cdr.BigEndian), giop.GetMsgBuf(8)
				if drawnD[pd] {
					t.Error("decoder released more than once")
				}
				if drawnMB[pmb] {
					t.Error("message buffer released more than once")
				}
				drawnD[pd], drawnMB[pmb] = true, true
			}
			for pd := range drawnD {
				pd.Release()
			}
			for pmb := range drawnMB {
				pmb.Release()
			}
		})
	}
}
