// Package durable is the replica's disaster-recovery state subsystem: an
// append-only operation log with CRC-framed records plus an incremental
// checkpoint file (snapshot + log-suffix truncation). Warm-passive
// replication alone relies on live state transfer, so a replica that
// restarts after rejuvenation or a crash rejoins blind; the durable store
// lets it replay its own history first and then fetch only the delta from
// the live group (the VSR-style recovery handshake in internal/ftmgr and
// internal/replica), following the message-logging + checkpointing design
// of the CORBA bank-servers disaster-recovery report (arXiv:0911.3092).
//
// On-disk layout (one directory per replica, docs/PROTOCOL.md §11):
//
//	oplog      file header, then a run of CRC-framed operation records
//	checkpoint file header, then one CRC-framed snapshot record
//
// Appends are written off the invocation hot path: the servant frames one
// record straight into the store's pending batch, and a writer goroutine,
// woken once per 1 ms group-commit window, takes the batch and writes it in
// one write(2). fsync happens at checkpoints and on Close, so a hard crash
// can lose an unsynced log tail — exactly the torn-tail case recovery
// detects and truncates past.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// File headers. The version octet follows the 4-byte magic.
const (
	logMagic  = "MDOP"
	ckptMagic = "MDCK"
	version   = 1
)

// headerSize is the length of each file's header: magic + version octet.
const headerSize = len(logMagic) + 1

// frameOverhead is the per-record framing cost: u32 payload length followed
// by the u32 CRC-32C of the payload.
const frameOverhead = 8

// MaxRecordSize bounds one framed record's payload; anything claiming more
// is corruption, not data.
const MaxRecordSize = 64 << 10

// recOp tags an operation-record payload (the only record kind today; the
// octet leaves room for e.g. membership or epoch records later).
const recOp = 1

// castagnoli is the CRC-32C table shared by all framing (the polynomial
// with hardware support on both amd64 and arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Op is one executed application operation: the unit of the log. OpNumber
// is the dense, monotonically increasing execution index (the VSR
// op-number); Counter is the replicated state value after executing it.
// Client/ClientSeq carry the invoker's at-most-once identity so replaying
// the log also rebuilds the dedup table ("" means an anonymous, non-deduped
// invocation).
type Op struct {
	OpNumber  uint64
	Counter   uint64
	Client    string
	ClientSeq uint64
}

// DedupEntry is one client's row of the at-most-once table: the highest
// invocation sequence executed for the client and the state counter its
// execution produced (returned verbatim to suppressed retransmissions).
type DedupEntry struct {
	Client  string
	Seq     uint64
	Counter uint64
}

// Snapshot is the checkpointable replica state: everything needed to
// restart without the log prefix it covers.
type Snapshot struct {
	// OpNumber is the last operation the snapshot covers; log records with
	// OpNumber beyond it are the incremental suffix to replay.
	OpNumber uint64
	// Counter is the replicated state counter at OpNumber.
	Counter uint64
	// Dedup is the at-most-once table at OpNumber.
	Dedup []DedupEntry
}

// Decode errors. ErrTornRecord marks an incomplete tail (the record frame
// runs past the available bytes — a write interrupted by a crash);
// ErrCorruptRecord marks a structurally complete record whose CRC or shape
// is wrong. Recovery truncates the log at either; neither is ever replayed.
var (
	ErrTornRecord    = errors.New("durable: torn record (incomplete tail)")
	ErrCorruptRecord = errors.New("durable: corrupt record (CRC or framing mismatch)")
)

// opRecordSize returns the framed size of op's log record.
func opRecordSize(op Op) int {
	return frameOverhead + opPayloadSize(op)
}

func opPayloadSize(op Op) int {
	return 1 + 8 + 8 + 8 + 2 + len(op.Client)
}

// encodeOpRecord frames op into dst, which must hold opRecordSize(op)
// bytes, and returns the bytes written. It allocates nothing.
func encodeOpRecord(dst []byte, op Op) int {
	n := opPayloadSize(op)
	binary.BigEndian.PutUint32(dst[0:4], uint32(n))
	p := dst[frameOverhead : frameOverhead+n]
	p[0] = recOp
	binary.BigEndian.PutUint64(p[1:9], op.OpNumber)
	binary.BigEndian.PutUint64(p[9:17], op.Counter)
	binary.BigEndian.PutUint64(p[17:25], op.ClientSeq)
	binary.BigEndian.PutUint16(p[25:27], uint16(len(op.Client)))
	copy(p[27:], op.Client)
	binary.BigEndian.PutUint32(dst[4:8], crc32.Checksum(p, castagnoli))
	return frameOverhead + n
}

// DecodeLogRecord decodes one framed operation record from the front of b,
// returning the record and the bytes consumed. ErrTornRecord means b ends
// mid-record (an interrupted append); ErrCorruptRecord means the frame is
// complete but its CRC or structure is invalid. It is the fuzz surface for
// the log decoder and never panics on hostile input.
func DecodeLogRecord(b []byte) (Op, int, error) {
	if len(b) < frameOverhead {
		return Op{}, 0, ErrTornRecord
	}
	n := int(binary.BigEndian.Uint32(b[0:4]))
	if n < 27 || n > MaxRecordSize {
		return Op{}, 0, ErrCorruptRecord
	}
	if len(b) < frameOverhead+n {
		return Op{}, 0, ErrTornRecord
	}
	p := b[frameOverhead : frameOverhead+n]
	if crc32.Checksum(p, castagnoli) != binary.BigEndian.Uint32(b[4:8]) {
		return Op{}, 0, ErrCorruptRecord
	}
	if p[0] != recOp {
		return Op{}, 0, ErrCorruptRecord
	}
	clen := int(binary.BigEndian.Uint16(p[25:27]))
	if 27+clen != n {
		return Op{}, 0, ErrCorruptRecord
	}
	op := Op{
		OpNumber:  binary.BigEndian.Uint64(p[1:9]),
		Counter:   binary.BigEndian.Uint64(p[9:17]),
		ClientSeq: binary.BigEndian.Uint64(p[17:25]),
		Client:    string(p[27 : 27+clen]),
	}
	return op, frameOverhead + n, nil
}

// EncodeSnapshot renders a snapshot payload (unframed). The same payload is
// the checkpoint file's and the Data of every state-transfer message: the
// warm-passive Checkpoint, the RecoveryQuery and its RecoveryState answers.
func EncodeSnapshot(s Snapshot) []byte {
	size := 1 + 8 + 8 + 4
	for _, e := range s.Dedup {
		size += 2 + len(e.Client) + 8 + 8
	}
	b := make([]byte, size)
	b[0] = version
	binary.BigEndian.PutUint64(b[1:9], s.OpNumber)
	binary.BigEndian.PutUint64(b[9:17], s.Counter)
	binary.BigEndian.PutUint32(b[17:21], uint32(len(s.Dedup)))
	off := 21
	for _, e := range s.Dedup {
		binary.BigEndian.PutUint16(b[off:], uint16(len(e.Client)))
		off += 2
		off += copy(b[off:], e.Client)
		binary.BigEndian.PutUint64(b[off:], e.Seq)
		off += 8
		binary.BigEndian.PutUint64(b[off:], e.Counter)
		off += 8
	}
	return b
}

// DecodeSnapshot parses a snapshot payload. It is the fuzz surface for the
// checkpoint decoder and never panics on hostile input.
func DecodeSnapshot(b []byte) (Snapshot, error) {
	var s Snapshot
	if len(b) < 21 {
		return s, ErrCorruptRecord
	}
	if b[0] != version {
		return s, fmt.Errorf("durable: snapshot version %d unsupported", b[0])
	}
	s.OpNumber = binary.BigEndian.Uint64(b[1:9])
	s.Counter = binary.BigEndian.Uint64(b[9:17])
	n := int(binary.BigEndian.Uint32(b[17:21]))
	// Each entry needs at least 18 bytes; reject implausible counts before
	// allocating.
	if n < 0 || n > (len(b)-21)/18 {
		return s, ErrCorruptRecord
	}
	off := 21
	if n > 0 {
		s.Dedup = make([]DedupEntry, 0, n)
	}
	for i := 0; i < n; i++ {
		if off+2 > len(b) {
			return Snapshot{}, ErrCorruptRecord
		}
		clen := int(binary.BigEndian.Uint16(b[off:]))
		off += 2
		if off+clen+16 > len(b) {
			return Snapshot{}, ErrCorruptRecord
		}
		e := DedupEntry{Client: string(b[off : off+clen])}
		off += clen
		e.Seq = binary.BigEndian.Uint64(b[off:])
		off += 8
		e.Counter = binary.BigEndian.Uint64(b[off:])
		off += 8
		s.Dedup = append(s.Dedup, e)
	}
	if off != len(b) {
		return Snapshot{}, ErrCorruptRecord
	}
	return s, nil
}

// encodeCheckpointFile renders the complete checkpoint file contents:
// header plus one CRC-framed snapshot payload.
func encodeCheckpointFile(s Snapshot) []byte {
	payload := EncodeSnapshot(s)
	b := make([]byte, headerSize+frameOverhead+len(payload))
	copy(b, ckptMagic)
	b[len(ckptMagic)] = version
	binary.BigEndian.PutUint32(b[headerSize:], uint32(len(payload)))
	binary.BigEndian.PutUint32(b[headerSize+4:], crc32.Checksum(payload, castagnoli))
	copy(b[headerSize+frameOverhead:], payload)
	return b
}

// decodeCheckpointFile parses a whole checkpoint file.
func decodeCheckpointFile(b []byte) (Snapshot, error) {
	if len(b) < headerSize+frameOverhead {
		return Snapshot{}, ErrCorruptRecord
	}
	if string(b[:len(ckptMagic)]) != ckptMagic || b[len(ckptMagic)] != version {
		return Snapshot{}, ErrCorruptRecord
	}
	n := int(binary.BigEndian.Uint32(b[headerSize:]))
	if n < 0 || headerSize+frameOverhead+n != len(b) {
		return Snapshot{}, ErrCorruptRecord
	}
	payload := b[headerSize+frameOverhead:]
	if crc32.Checksum(payload, castagnoli) != binary.BigEndian.Uint32(b[headerSize+4:]) {
		return Snapshot{}, ErrCorruptRecord
	}
	return DecodeSnapshot(payload)
}
