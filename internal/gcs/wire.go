// Package gcs provides the totally-ordered reliable group-communication
// substrate that MEAD layers on (the paper uses the Spread toolkit). A
// central hub sequences all traffic, giving total order within each group,
// reliable delivery over TCP, and view-synchronous membership: join, leave
// and crash events are delivered as View messages in the same ordered stream
// as data messages. Members also own a private address (their member name)
// for point-to-point sends, mirroring Spread's private groups.
//
// The hub additionally accounts bytes exchanged per group, which is the
// measurement behind Figure 5 of the paper (group-communication bandwidth
// versus rejuvenation threshold).
package gcs

import (
	"mead/internal/cdr"
	"mead/internal/frame"
)

// Wire opcodes (member -> hub).
const (
	opHello byte = 1
	opJoin  byte = 2
	opLeave byte = 3
	opMcast byte = 4
	opSend  byte = 5
)

// Wire opcodes (hub -> member).
const (
	opDeliver byte = 10
	opView    byte = 11
	opPrivate byte = 12
	opDenied  byte = 13
)

// putOp renders one member-to-hub frame into e, the encoder the member's
// connection owns: the opcode, the member, group or target name and, for the
// two data opcodes, the payload.
func putOp(e *cdr.Encoder, op byte, name string, payload []byte) {
	e.Reset(cdr.BigEndian)
	frame.Begin(e)
	e.WriteOctet(op)
	e.WriteString(name)
	if op == opMcast || op == opSend {
		e.WriteOctets(payload)
	}
}

// The hub-to-member encoders below return a complete frame, length prefix
// included, in a buffer of its own: the hub queues one such frame to every
// recipient and nobody writes to it afterwards.

func beginFrame(op byte) *cdr.Encoder {
	e := cdr.NewEncoder(cdr.BigEndian)
	frame.Begin(e)
	e.WriteOctet(op)
	return e
}

func encodeDeliver(group string, seq uint64, sender string, payload []byte) ([]byte, error) {
	e := beginFrame(opDeliver)
	e.WriteString(group)
	e.WriteULongLong(seq)
	e.WriteString(sender)
	e.WriteOctets(payload)
	return frame.Finish(e)
}

func encodeView(group string, viewID, seq uint64, members []string) ([]byte, error) {
	e := beginFrame(opView)
	e.WriteString(group)
	e.WriteULongLong(viewID)
	e.WriteULongLong(seq)
	e.WriteULong(uint32(len(members)))
	for _, m := range members {
		e.WriteString(m)
	}
	return frame.Finish(e)
}

func encodePrivate(sender string, payload []byte) ([]byte, error) {
	e := beginFrame(opPrivate)
	e.WriteString(sender)
	e.WriteOctets(payload)
	return frame.Finish(e)
}

func encodeDenied(reason string) ([]byte, error) {
	e := beginFrame(opDenied)
	e.WriteString(reason)
	return frame.Finish(e)
}
