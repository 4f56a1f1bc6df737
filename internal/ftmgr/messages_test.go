package ftmgr

import (
	"bytes"
	"testing"

	"mead/internal/giop"
)

func sampleIOR(port uint16) giop.IOR {
	return giop.NewIOR("IDL:mead/TimeOfDay:1.0", "127.0.0.1", port,
		giop.MakeObjectKey("timeofday", "clock"))
}

func TestAnnounceRoundTrip(t *testing.T) {
	a := Announce{Name: "r1", Addr: "127.0.0.1:7001", IORs: []giop.IOR{sampleIOR(7001), sampleIOR(7002)}}
	msg, err := DecodeMessage(EncodeAnnounce(a))
	if err != nil {
		t.Fatal(err)
	}
	got, ok := msg.(Announce)
	if !ok {
		t.Fatalf("decoded %T", msg)
	}
	if got.Name != "r1" || got.Addr != "127.0.0.1:7001" || len(got.IORs) != 2 {
		t.Fatalf("announce = %+v", got)
	}
	p, err := got.IORs[1].IIOP()
	if err != nil || p.Port != 7002 {
		t.Fatalf("ior profile = %+v, %v", p, err)
	}
}

func TestSyncListRoundTrip(t *testing.T) {
	s := SyncList{View: 1<<33 + 7, Replicas: []Announce{
		{Name: "r1", Addr: "a:1", IORs: []giop.IOR{sampleIOR(1)}},
		{Name: "r2", Addr: "a:2"},
	}}
	msg, err := DecodeMessage(EncodeSyncList(s))
	if err != nil {
		t.Fatal(err)
	}
	got, ok := msg.(SyncList)
	if !ok || got.View != s.View || len(got.Replicas) != 2 || got.Replicas[1].Name != "r2" {
		t.Fatalf("sync = %+v", msg)
	}
}

func TestNoticeRoundTrip(t *testing.T) {
	n := Notice{Replica: "r1", Resource: "memory", Usage: 0.83}
	msg, err := DecodeMessage(EncodeNotice(n))
	if err != nil {
		t.Fatal(err)
	}
	got, ok := msg.(Notice)
	if !ok || got != n {
		t.Fatalf("notice = %+v", msg)
	}
	if got, ok := DecodeNotice(EncodeNotice(n)); !ok || got != n {
		t.Fatalf("DecodeNotice = %+v, %v", got, ok)
	}
	for _, other := range [][]byte{nil, EncodeCheckpoint(Checkpoint{From: "r1"}), EncodeNotice(n)[:5]} {
		if got, ok := DecodeNotice(other); ok {
			t.Fatalf("DecodeNotice(%x) = %+v", other, got)
		}
	}
}

func TestQueryAndPrimaryRoundTrip(t *testing.T) {
	q, err := DecodeMessage(EncodeQueryPrimary(QueryPrimary{ReplyTo: "client-7"}))
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := q.(QueryPrimary); !ok || got.ReplyTo != "client-7" {
		t.Fatalf("query = %+v", q)
	}
	p, err := DecodeMessage(EncodePrimaryIs(PrimaryIs{Name: "r2", Addr: "h:2", IORs: []giop.IOR{sampleIOR(2)}}))
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := p.(PrimaryIs); !ok || got.Name != "r2" || got.Addr != "h:2" || len(got.IORs) != 1 {
		t.Fatalf("primary = %+v", p)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	c := Checkpoint{From: "r1", Data: []byte{1, 2, 3}}
	msg, err := DecodeMessage(EncodeCheckpoint(c))
	if err != nil {
		t.Fatal(err)
	}
	got, ok := msg.(Checkpoint)
	if !ok || got.From != "r1" || !bytes.Equal(got.Data, c.Data) {
		t.Fatalf("checkpoint = %+v", msg)
	}
}

func TestDecodeMessageErrors(t *testing.T) {
	if _, err := DecodeMessage(nil); err == nil {
		t.Fatal("empty message decoded")
	}
	if _, err := DecodeMessage([]byte{99}); err == nil {
		t.Fatal("unknown kind decoded")
	}
	if _, err := DecodeMessage([]byte{kindAnnounce, 1, 2}); err == nil {
		t.Fatal("truncated announce decoded")
	}
}

func TestRecoveryHandshakeRoundTrip(t *testing.T) {
	q := RecoveryQuery{From: "r2", Nonce: 1 << 40, Data: []byte{6, 5}}
	msg, err := DecodeMessage(EncodeRecoveryQuery(q))
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := msg.(RecoveryQuery); !ok || got.From != "r2" || got.Nonce != q.Nonce || !bytes.Equal(got.Data, q.Data) {
		t.Fatalf("recovery query = %+v", msg)
	}
	s := RecoveryState{From: "r1", Nonce: 77, Data: []byte{9, 8, 7}}
	msg, err = DecodeMessage(EncodeRecoveryState(s))
	if err != nil {
		t.Fatal(err)
	}
	got, ok := msg.(RecoveryState)
	if !ok || got.From != "r1" || got.Nonce != 77 || !bytes.Equal(got.Data, s.Data) {
		t.Fatalf("recovery state = %+v", msg)
	}
}
