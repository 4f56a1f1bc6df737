package giop

import (
	"errors"
	"fmt"

	"mead/internal/cdr"
)

// ReplyStatus is the GIOP reply_status discriminator. Values 0-3 are GIOP
// 1.0; 4 and 5 are the GIOP 1.2 extensions that the paper's proactive
// schemes rely on.
type ReplyStatus uint32

// Reply statuses.
const (
	ReplyNoException         ReplyStatus = 0
	ReplyUserException       ReplyStatus = 1
	ReplySystemException     ReplyStatus = 2
	ReplyLocationForward     ReplyStatus = 3
	ReplyLocationForwardPerm ReplyStatus = 4
	ReplyNeedsAddressingMode ReplyStatus = 5
)

func (s ReplyStatus) String() string {
	switch s {
	case ReplyNoException:
		return "NO_EXCEPTION"
	case ReplyUserException:
		return "USER_EXCEPTION"
	case ReplySystemException:
		return "SYSTEM_EXCEPTION"
	case ReplyLocationForward:
		return "LOCATION_FORWARD"
	case ReplyLocationForwardPerm:
		return "LOCATION_FORWARD_PERM"
	case ReplyNeedsAddressingMode:
		return "NEEDS_ADDRESSING_MODE"
	default:
		return fmt.Sprintf("ReplyStatus(%d)", uint32(s))
	}
}

// ServiceContext is one GIOP service-context entry. When produced by
// DecodeRequest/DecodeReply, Data borrows the message body (see the
// buffer-ownership rules in docs/PROTOCOL.md §8).
type ServiceContext struct {
	ID   uint32
	Data []byte
}

// interned deduplicates the hot repeated strings of the receive path —
// operation names and exception repository ids — so steady-state decoding
// allocates no strings. An application's distinct operation names are few;
// the bound only guards against hostile streams.
var interned = cdr.NewInterner(1024)

// ServiceContextMead is the (vendor-range) context id this reproduction uses
// for MEAD bookkeeping data carried inside standard GIOP messages.
const ServiceContextMead uint32 = 0x4D454144 // "MEAD"

func encodeServiceContexts(e *cdr.Encoder, scs []ServiceContext) {
	e.WriteULong(uint32(len(scs)))
	for _, sc := range scs {
		e.WriteULong(sc.ID)
		e.WriteOctets(sc.Data)
	}
}

func decodeServiceContexts(d *cdr.Decoder) ([]ServiceContext, error) {
	n, err := d.ReadULong()
	if err != nil {
		return nil, fmt.Errorf("giop: service context count: %w", err)
	}
	if n > 1024 {
		return nil, fmt.Errorf("giop: implausible service context count %d", n)
	}
	var scs []ServiceContext
	for i := uint32(0); i < n; i++ {
		id, err := d.ReadULong()
		if err != nil {
			return nil, fmt.Errorf("giop: service context id: %w", err)
		}
		data, err := d.ReadOctetsBorrow()
		if err != nil {
			return nil, fmt.Errorf("giop: service context data: %w", err)
		}
		scs = append(scs, ServiceContext{ID: id, Data: data})
	}
	return scs, nil
}

// skipServiceContexts advances past the service-context list without
// materializing it — the zero-alloc prefix skip behind the request-id-only
// parses.
func skipServiceContexts(d *cdr.Decoder) error {
	n, err := d.ReadULong()
	if err != nil {
		return fmt.Errorf("giop: service context count: %w", err)
	}
	if n > 1024 {
		return fmt.Errorf("giop: implausible service context count %d", n)
	}
	for i := uint32(0); i < n; i++ {
		if _, err := d.ReadULong(); err != nil {
			return fmt.Errorf("giop: service context id: %w", err)
		}
		if _, err := d.ReadOctetsBorrow(); err != nil {
			return fmt.Errorf("giop: service context data: %w", err)
		}
	}
	return nil
}

// RequestHeader is the GIOP 1.0 Request message header.
type RequestHeader struct {
	ServiceContexts  []ServiceContext
	RequestID        uint32
	ResponseExpected bool
	ObjectKey        []byte
	Operation        string
	Principal        []byte
}

// EncodeRequest renders a complete GIOP Request message into a buffer the
// caller owns. writeArgs, if non-nil, encodes the operation arguments; they
// form their own CDR alignment origin (see Decoder.Rest), so both peers
// agree on padding regardless of the header's length.
func EncodeRequest(order cdr.ByteOrder, hdr RequestHeader, writeArgs func(*cdr.Encoder)) []byte {
	return copyOut(EncodeRequestPooled(order, hdr, writeArgs))
}

// EncodeRequestPooled is EncodeRequest without the final copy: the complete
// message stays in the pooled encoder's buffer and the encoder itself is
// returned (its Bytes are the wire frame). The caller must hand it to a
// writer that Releases it once the bytes are on the wire; see finishMessage
// for the ownership rule.
func EncodeRequestPooled(order cdr.ByteOrder, hdr RequestHeader, writeArgs func(*cdr.Encoder)) *cdr.Encoder {
	e := beginMessage(order)
	encodeServiceContexts(e, hdr.ServiceContexts)
	e.WriteULong(hdr.RequestID)
	e.WriteBool(hdr.ResponseExpected)
	e.WriteOctets(hdr.ObjectKey)
	e.WriteString(hdr.Operation)
	e.WriteOctets(hdr.Principal)
	if writeArgs != nil {
		e.Rebase() // arguments form their own alignment origin
		writeArgs(e)
	}
	return finishMessage(e, order, MsgRequest)
}

// DecodeRequest parses a Request body (as returned by ReadMessage or
// ReadMessagePooled), yielding the header and a decoder positioned at the
// operation arguments.
//
// The decode is zero-copy: ObjectKey, Principal, and service-context Data
// borrow body, and Operation is an interned string. Header slices (and the
// argument decoder's stream) are valid only as long as body; copy them to
// retain past its release. The returned decoder is pooled — hot paths give
// it back with Release once the arguments are consumed.
func DecodeRequest(order cdr.ByteOrder, body []byte) (RequestHeader, *cdr.Decoder, error) {
	d := cdr.GetDecoder(body, order)
	var hdr RequestHeader
	var err error
	if hdr.ServiceContexts, err = decodeServiceContexts(d); err != nil {
		d.Release()
		return hdr, nil, err
	}
	if hdr.RequestID, err = d.ReadULong(); err != nil {
		d.Release()
		return hdr, nil, fmt.Errorf("giop: request id: %w", err)
	}
	if hdr.ResponseExpected, err = d.ReadBool(); err != nil {
		d.Release()
		return hdr, nil, fmt.Errorf("giop: response_expected: %w", err)
	}
	if hdr.ObjectKey, err = d.ReadOctetsBorrow(); err != nil {
		d.Release()
		return hdr, nil, fmt.Errorf("giop: object key: %w", err)
	}
	if hdr.Operation, err = d.ReadStringIntern(interned); err != nil {
		d.Release()
		return hdr, nil, fmt.Errorf("giop: operation: %w", err)
	}
	if hdr.Principal, err = d.ReadOctetsBorrow(); err != nil {
		d.Release()
		return hdr, nil, fmt.Errorf("giop: principal: %w", err)
	}
	d.Rebase() // the arguments form their own alignment origin
	return hdr, d, nil
}

// RequestIDOf extracts just the request_id from a Request body — the
// minimal parse the NEEDS_ADDRESSING client interceptor performs on
// outbound requests (it does not need object keys, hence its much lower
// overhead than the LOCATION_FORWARD scheme's full parse).
func RequestIDOf(order cdr.ByteOrder, body []byte) (uint32, error) {
	d := cdr.GetDecoder(body, order)
	defer d.Release()
	if err := skipServiceContexts(d); err != nil {
		return 0, err
	}
	id, err := d.ReadULong()
	if err != nil {
		return 0, fmt.Errorf("giop: request id: %w", err)
	}
	return id, nil
}

// ReplyIDOf extracts just the request_id from a Reply body — the minimal
// parse the multiplexed client transport performs to demultiplex
// interleaved replies to their waiting callers.
func ReplyIDOf(order cdr.ByteOrder, body []byte) (uint32, error) {
	d := cdr.GetDecoder(body, order)
	defer d.Release()
	if err := skipServiceContexts(d); err != nil {
		return 0, err
	}
	id, err := d.ReadULong()
	if err != nil {
		return 0, fmt.Errorf("giop: reply request id: %w", err)
	}
	return id, nil
}

// ReplyHeader is the GIOP Reply message header.
type ReplyHeader struct {
	ServiceContexts []ServiceContext
	RequestID       uint32
	Status          ReplyStatus
}

// EncodeReply renders a complete GIOP Reply message into a buffer the caller
// owns. writeBody, if non-nil, encodes the status-specific body (result
// values, exception, or forwarded IOR); it forms its own CDR alignment
// origin, mirroring EncodeRequest.
func EncodeReply(order cdr.ByteOrder, hdr ReplyHeader, writeBody func(*cdr.Encoder)) []byte {
	return copyOut(EncodeReplyPooled(order, hdr, writeBody))
}

// EncodeReplyPooled is EncodeReply without the final copy, returning the
// pooled encoder whose Bytes are the complete wire frame. Ownership follows
// finishMessage: the connection writer Releases the encoder after the
// vectored write returns.
func EncodeReplyPooled(order cdr.ByteOrder, hdr ReplyHeader, writeBody func(*cdr.Encoder)) *cdr.Encoder {
	e := beginMessage(order)
	encodeServiceContexts(e, hdr.ServiceContexts)
	e.WriteULong(hdr.RequestID)
	e.WriteULong(uint32(hdr.Status))
	if writeBody != nil {
		e.Rebase() // the status-specific body forms its own alignment origin
		writeBody(e)
	}
	return finishMessage(e, order, MsgReply)
}

// DecodeReply parses a Reply body, yielding the header and a decoder
// positioned at the status-specific body. Like DecodeRequest it is
// zero-copy: service-context Data borrows body, and the returned decoder is
// pooled (Release it on hot paths once the body is consumed).
func DecodeReply(order cdr.ByteOrder, body []byte) (ReplyHeader, *cdr.Decoder, error) {
	d := cdr.GetDecoder(body, order)
	var hdr ReplyHeader
	var err error
	if hdr.ServiceContexts, err = decodeServiceContexts(d); err != nil {
		d.Release()
		return hdr, nil, err
	}
	if hdr.RequestID, err = d.ReadULong(); err != nil {
		d.Release()
		return hdr, nil, fmt.Errorf("giop: reply request id: %w", err)
	}
	status, err := d.ReadULong()
	if err != nil {
		d.Release()
		return hdr, nil, fmt.Errorf("giop: reply status: %w", err)
	}
	if status > uint32(ReplyNeedsAddressingMode) {
		d.Release()
		return hdr, nil, fmt.Errorf("giop: unknown reply status %d", status)
	}
	hdr.Status = ReplyStatus(status)
	d.Rebase() // the status-specific body forms its own alignment origin
	return hdr, d, nil
}

// CompletionStatus mirrors CORBA::CompletionStatus.
type CompletionStatus uint32

// Completion statuses.
const (
	CompletedYes   CompletionStatus = 0
	CompletedNo    CompletionStatus = 1
	CompletedMaybe CompletionStatus = 2
)

func (c CompletionStatus) String() string {
	switch c {
	case CompletedYes:
		return "COMPLETED_YES"
	case CompletedNo:
		return "COMPLETED_NO"
	case CompletedMaybe:
		return "COMPLETED_MAYBE"
	default:
		return fmt.Sprintf("CompletionStatus(%d)", uint32(c))
	}
}

// Well-known CORBA system exception repository ids. COMM_FAILURE and
// TRANSIENT are the two exception kinds the paper's clients observe.
const (
	RepoCommFailure    = "IDL:omg.org/CORBA/COMM_FAILURE:1.0"
	RepoTransient      = "IDL:omg.org/CORBA/TRANSIENT:1.0"
	RepoObjectNotExist = "IDL:omg.org/CORBA/OBJECT_NOT_EXIST:1.0"
	RepoBadOperation   = "IDL:omg.org/CORBA/BAD_OPERATION:1.0"
	RepoInternal       = "IDL:omg.org/CORBA/INTERNAL:1.0"
	RepoNoResponse     = "IDL:omg.org/CORBA/NO_RESPONSE:1.0"
)

// SystemException is a CORBA system exception as carried in a
// SYSTEM_EXCEPTION reply body. It implements error so ORB callers can
// inspect it with errors.As.
type SystemException struct {
	RepoID    string
	Minor     uint32
	Completed CompletionStatus
}

func (e *SystemException) Error() string {
	return fmt.Sprintf("CORBA system exception %s (minor %d, %v)", e.RepoID, e.Minor, e.Completed)
}

// Is reports whether target is a *SystemException with the same RepoID,
// enabling errors.Is matching against sentinel exceptions.
func (e *SystemException) Is(target error) bool {
	var se *SystemException
	if !errors.As(target, &se) {
		return false
	}
	return se.RepoID == e.RepoID
}

// CommFailure constructs the COMM_FAILURE exception clients observe when an
// established connection breaks.
func CommFailure(minor uint32, completed CompletionStatus) *SystemException {
	return &SystemException{RepoID: RepoCommFailure, Minor: minor, Completed: completed}
}

// Transient constructs the TRANSIENT exception clients observe when a
// (possibly stale) object reference cannot be reached.
func Transient(minor uint32, completed CompletionStatus) *SystemException {
	return &SystemException{RepoID: RepoTransient, Minor: minor, Completed: completed}
}

// EncodeSystemException appends the standard exception body to e.
func EncodeSystemException(e *cdr.Encoder, se *SystemException) {
	e.WriteString(se.RepoID)
	e.WriteULong(se.Minor)
	e.WriteULong(uint32(se.Completed))
}

// DecodeSystemException reads a standard exception body. The repository id
// is interned, so repeated exceptions of one kind share a single string.
func DecodeSystemException(d *cdr.Decoder) (*SystemException, error) {
	repo, err := d.ReadStringIntern(interned)
	if err != nil {
		return nil, fmt.Errorf("giop: exception repo id: %w", err)
	}
	minor, err := d.ReadULong()
	if err != nil {
		return nil, fmt.Errorf("giop: exception minor: %w", err)
	}
	completed, err := d.ReadULong()
	if err != nil {
		return nil, fmt.Errorf("giop: exception completion: %w", err)
	}
	return &SystemException{RepoID: repo, Minor: minor, Completed: CompletionStatus(completed)}, nil
}
