package ftmgr

import (
	"fmt"
	"math"

	"mead/internal/cdr"
	"mead/internal/giop"
)

// Message kinds carried over the group-communication system among the
// fault-tolerance managers, the Recovery Manager, and (for the
// NEEDS_ADDRESSING scheme) querying clients.
const (
	kindAnnounce      byte = 1
	kindSync          byte = 2
	kindNotice        byte = 3
	kindQueryPrimary  byte = 4
	kindPrimaryIs     byte = 5
	kindCheckpoint    byte = 6
	kindRecoveryQuery byte = 7
	kindRecoveryState byte = 8
)

// Announce advertises one replica's endpoint and object references. Each
// replica broadcasts it on startup ("we intercept the IOR returned by the
// Naming Service when each server replica registers its objects ... We then
// broadcast these IORs, through the Spread group communication system, to
// the MEAD Fault-Tolerance Managers collocated with the server replicas").
type Announce struct {
	Name string
	Addr string
	IORs []giop.IOR
}

// SyncList redistributes the full replica listing. The first replica of a
// view sends it while a member that joined has not yet been answered, naming
// the view it answers; a view that only removes members sends none.
type SyncList struct {
	View     uint64
	Replicas []Announce
}

// Notice is the proactive fault notification sent when a replica crosses
// its launch threshold; the Recovery Manager reacts by preparing a
// replacement.
type Notice struct {
	Replica  string
	Resource string
	Usage    float64
}

// QueryPrimary asks the replica group for the current primary's address
// (the NEEDS_ADDRESSING client's EOF recovery path).
type QueryPrimary struct {
	ReplyTo string
}

// PrimaryIs answers a QueryPrimary; the first replica in the group view
// responds.
type PrimaryIs struct {
	Name string
	Addr string
	IORs []giop.IOR
}

// Checkpoint, RecoveryQuery and RecoveryState are the three state-transfer
// messages. Each carries its sender's snapshot in Data (internal/durable
// encodes it; opaque to ftmgr), and all three share one body layout: From,
// Nonce (zero in a Checkpoint), Data.
//
// Checkpoint is warm-passive state transfer from the primary to the backups.
type Checkpoint struct {
	From string
	Data []byte
}

// RecoveryQuery is the VSR-style status message a restarting replica
// multicasts to the group after replaying its local log: "my state is Data."
// Nonce ties answers to this incarnation's query so stale responses addressed
// to an earlier incarnation are discarded (the SNIPPETS.md RecoveryProtocol
// exemplar).
type RecoveryQuery struct {
	From  string
	Nonce uint64
	Data  []byte
}

// RecoveryState answers a RecoveryQuery privately with the responder's
// snapshot, echoing the query's nonce.
type RecoveryState RecoveryQuery

func encodeAnnounceBody(e *cdr.Encoder, a Announce) {
	e.WriteString(a.Name)
	e.WriteString(a.Addr)
	e.WriteULong(uint32(len(a.IORs)))
	for _, ior := range a.IORs {
		giop.EncodeIOR(e, ior)
	}
}

func decodeAnnounceBody(d *cdr.Decoder) (Announce, error) {
	var a Announce
	var err error
	if a.Name, err = d.ReadString(); err != nil {
		return a, err
	}
	if a.Addr, err = d.ReadString(); err != nil {
		return a, err
	}
	n, err := d.ReadULong()
	if err != nil {
		return a, err
	}
	if n > 1024 {
		return a, fmt.Errorf("ftmgr: implausible IOR count %d", n)
	}
	for i := uint32(0); i < n; i++ {
		ior, err := giop.DecodeIOR(d)
		if err != nil {
			return a, err
		}
		a.IORs = append(a.IORs, ior)
	}
	return a, nil
}

// EncodeAnnounce renders an Announce message payload.
func EncodeAnnounce(a Announce) []byte {
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteOctet(kindAnnounce)
	encodeAnnounceBody(e, a)
	return e.Bytes()
}

// EncodeSyncList renders a SyncList message payload.
func EncodeSyncList(s SyncList) []byte {
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteOctet(kindSync)
	e.WriteULongLong(s.View)
	e.WriteULong(uint32(len(s.Replicas)))
	for _, a := range s.Replicas {
		encodeAnnounceBody(e, a)
	}
	return e.Bytes()
}

// EncodeNotice renders a proactive fault notification payload.
func EncodeNotice(n Notice) []byte {
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteOctet(kindNotice)
	e.WriteString(n.Replica)
	e.WriteString(n.Resource)
	e.WriteULongLong(math.Float64bits(n.Usage))
	return e.Bytes()
}

// EncodeQueryPrimary renders a primary query payload.
func EncodeQueryPrimary(q QueryPrimary) []byte {
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteOctet(kindQueryPrimary)
	e.WriteString(q.ReplyTo)
	return e.Bytes()
}

// EncodePrimaryIs renders a primary answer payload.
func EncodePrimaryIs(p PrimaryIs) []byte {
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteOctet(kindPrimaryIs)
	encodeAnnounceBody(e, Announce{Name: p.Name, Addr: p.Addr, IORs: p.IORs})
	return e.Bytes()
}

// EncodeCheckpoint renders a state-transfer payload.
func EncodeCheckpoint(c Checkpoint) []byte { return encodeState(kindCheckpoint, c.From, 0, c.Data) }

// EncodeRecoveryQuery renders a recovery status-query payload.
func EncodeRecoveryQuery(q RecoveryQuery) []byte {
	return encodeState(kindRecoveryQuery, q.From, q.Nonce, q.Data)
}

// EncodeRecoveryState renders a recovery-handshake answer payload.
func EncodeRecoveryState(s RecoveryState) []byte {
	return encodeState(kindRecoveryState, s.From, s.Nonce, s.Data)
}

// encodeState renders the body the three state-transfer messages share.
func encodeState(kind byte, from string, nonce uint64, data []byte) []byte {
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteOctet(kind)
	e.WriteString(from)
	e.WriteULongLong(nonce)
	e.WriteOctets(data)
	return e.Bytes()
}

// DecodeMessage parses any fault-tolerance message payload, returning one
// of Announce, SyncList, Notice, QueryPrimary, PrimaryIs, Checkpoint,
// RecoveryQuery, or RecoveryState.
func DecodeMessage(payload []byte) (interface{}, error) {
	d := cdr.NewDecoder(payload, cdr.BigEndian)
	kind, err := d.ReadOctet()
	if err != nil {
		return nil, fmt.Errorf("ftmgr: empty message: %w", err)
	}
	switch kind {
	case kindAnnounce:
		return decodeAnnounceBody(d)
	case kindSync:
		var s SyncList
		if s.View, err = d.ReadULongLong(); err != nil {
			return nil, err
		}
		n, err := d.ReadULong()
		if err != nil {
			return nil, err
		}
		if n > 4096 {
			return nil, fmt.Errorf("ftmgr: implausible sync size %d", n)
		}
		for i := uint32(0); i < n; i++ {
			a, err := decodeAnnounceBody(d)
			if err != nil {
				return nil, err
			}
			s.Replicas = append(s.Replicas, a)
		}
		return s, nil
	case kindNotice:
		var n Notice
		if n.Replica, err = d.ReadString(); err != nil {
			return nil, err
		}
		if n.Resource, err = d.ReadString(); err != nil {
			return nil, err
		}
		bits, err := d.ReadULongLong()
		if err != nil {
			return nil, err
		}
		n.Usage = math.Float64frombits(bits)
		return n, nil
	case kindQueryPrimary:
		var q QueryPrimary
		if q.ReplyTo, err = d.ReadString(); err != nil {
			return nil, err
		}
		return q, nil
	case kindPrimaryIs:
		a, err := decodeAnnounceBody(d)
		if err != nil {
			return nil, err
		}
		return PrimaryIs{Name: a.Name, Addr: a.Addr, IORs: a.IORs}, nil
	case kindCheckpoint, kindRecoveryQuery, kindRecoveryState:
		var s RecoveryQuery
		if s.From, err = d.ReadString(); err != nil {
			return nil, err
		}
		if s.Nonce, err = d.ReadULongLong(); err != nil {
			return nil, err
		}
		if s.Data, err = d.ReadOctets(); err != nil {
			return nil, err
		}
		switch kind {
		case kindCheckpoint:
			return Checkpoint{From: s.From, Data: s.Data}, nil
		case kindRecoveryQuery:
			return s, nil
		}
		return RecoveryState(s), nil
	default:
		return nil, fmt.Errorf("ftmgr: unknown message kind %d", kind)
	}
}

// DecodeNotice decodes payload if it is a Notice and reads no further than
// the kind octet of any other message: a member that acts on notices alone
// (the Recovery Manager) need not copy the snapshots and listings the group
// also carries.
func DecodeNotice(payload []byte) (Notice, bool) {
	if len(payload) == 0 || payload[0] != kindNotice {
		return Notice{}, false
	}
	msg, err := DecodeMessage(payload)
	n, ok := msg.(Notice)
	return n, ok && err == nil
}
