package durable

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mead/internal/giop"
)

// Config parameterizes one replica's durable store.
type Config struct {
	// Dir is the replica's state directory (created if absent). Each
	// replica must own its directory exclusively.
	Dir string
	// Replica names the owning replica (fault-plan matching, log lines).
	Replica string
	// Faults, when non-nil, injects deterministic I/O faults (tests).
	Faults *FaultInjector
	// QueueDepth bounds the append queue (default 4096); a full queue
	// blocks the appender, trading invoke latency for durability.
	QueueDepth int
	// Logf, if set, receives progress lines.
	Logf func(format string, args ...interface{})
}

// RecoverResult describes what Open reconstructed from disk.
type RecoverResult struct {
	// Snap is the recovered state: checkpoint plus replayed log suffix.
	Snap Snapshot
	// CheckpointLoaded reports that a valid checkpoint file was read.
	CheckpointLoaded bool
	// CheckpointDamaged reports that a checkpoint file existed but failed
	// validation and was ignored (the log and the live group must fill in).
	CheckpointDamaged bool
	// Replayed is how many log records were applied on top of the
	// checkpoint.
	Replayed int
	// Truncated reports that a torn or corrupt log tail was detected and
	// cut off — those records are never silently replayed.
	Truncated bool
	// TruncatedBytes is how many trailing bytes the truncation dropped.
	TruncatedBytes int
}

// wreq is one writer-queue entry: exactly one field set.
type wreq struct {
	buf  *giop.MsgBuf  // framed op record to append
	snap *Snapshot     // checkpoint request
	done chan struct{} // flush barrier
}

// Store is one replica's durable state: the append-only op log plus the
// incremental checkpoint file, maintained by a single writer goroutine fed
// over a buffered channel so Append never does I/O on the caller's
// goroutine and allocates nothing in steady state.
//
// The log is written behind the caller (docs/PROTOCOL.md §11): an appended
// record reaches the file within flushDelay, or at once when the write
// buffer fills or a Barrier, Checkpoint or Close asks; it is fsynced only by
// Checkpoint and Close.
//
// Ordering contract: the caller appends ops in execution order and calls
// Checkpoint(snap) only after every op covered by snap (OpNumber <=
// snap.OpNumber) has been appended. Queue order then guarantees that when
// the writer processes the checkpoint, the log holds exactly the covered
// prefix, so truncating it to empty is the log-suffix truncation.
type Store struct {
	cfg Config

	ch chan wreq
	wg sync.WaitGroup

	mu     sync.RWMutex // guards closed vs. in-flight sends
	closed bool

	logBytes atomic.Int64 // bytes appended since the last checkpoint

	// Writer-goroutine state (no locking needed).
	f       *os.File
	w       *bufio.Writer // over logFile{s}
	wedged  bool          // a TornWrite fired: drop everything from here on
	wErr    error
	dropped int64
	// fileWrites counts the write calls on the log file; appends over
	// fileWrites is the group-commit batch size (read after Close).
	fileWrites int64
}

// logFile is the log file as the buffered writer sees it, counting writes.
type logFile struct{ s *Store }

func (l logFile) Write(p []byte) (int, error) {
	l.s.fileWrites++
	return l.s.f.Write(p)
}

func (s *Store) logf(format string, args ...interface{}) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Store) logPath() string  { return filepath.Join(s.cfg.Dir, "oplog") }
func (s *Store) ckptPath() string { return filepath.Join(s.cfg.Dir, "checkpoint") }

// Open loads the replica's durable state — checkpoint, then the log suffix,
// truncating a torn or corrupt tail — and returns a Store ready to append.
// Damaged state is recovered past, never fatal: a missing or invalid
// checkpoint falls back to log-only replay, and an empty directory yields
// zero state (the recovery handshake then fetches everything live).
func Open(cfg Config) (*Store, RecoverResult, error) {
	if cfg.Dir == "" {
		return nil, RecoverResult{}, fmt.Errorf("durable: Dir required")
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4096
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, RecoverResult{}, fmt.Errorf("durable: %w", err)
	}
	s := &Store{cfg: cfg, ch: make(chan wreq, cfg.QueueDepth)}

	var res RecoverResult
	if raw, err := os.ReadFile(s.ckptPath()); err == nil {
		if snap, derr := decodeCheckpointFile(raw); derr == nil {
			res.Snap = snap
			res.CheckpointLoaded = true
		} else {
			res.CheckpointDamaged = true
			s.logf("durable %s: checkpoint damaged (%v), ignoring", cfg.Replica, derr)
		}
	} else if !os.IsNotExist(err) {
		return nil, RecoverResult{}, fmt.Errorf("durable: %w", err)
	}

	f, err := os.OpenFile(s.logPath(), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, RecoverResult{}, fmt.Errorf("durable: %w", err)
	}
	raw, err := io.ReadAll(f)
	if err != nil {
		_ = f.Close()
		return nil, RecoverResult{}, fmt.Errorf("durable: %w", err)
	}
	goodEnd, err := s.replay(raw, &res)
	if err != nil {
		_ = f.Close()
		return nil, RecoverResult{}, err
	}
	if goodEnd < int64(len(raw)) {
		res.Truncated = true
		res.TruncatedBytes = len(raw) - int(goodEnd)
		s.logf("durable %s: truncating %d damaged log byte(s) at offset %d",
			cfg.Replica, res.TruncatedBytes, goodEnd)
		if err := f.Truncate(goodEnd); err != nil {
			_ = f.Close()
			return nil, RecoverResult{}, fmt.Errorf("durable: %w", err)
		}
	}
	if _, err := f.Seek(goodEnd, io.SeekStart); err != nil {
		_ = f.Close()
		return nil, RecoverResult{}, fmt.Errorf("durable: %w", err)
	}
	s.f = f
	s.w = bufio.NewWriterSize(logFile{s}, 64<<10)
	if len(raw) < headerSize {
		// Fresh (or headerless) log: write the file header.
		if _, err := f.Seek(0, io.SeekStart); err == nil {
			_ = f.Truncate(0)
			_, _ = s.w.WriteString(logMagic)
			_ = s.w.WriteByte(version)
			_ = s.w.Flush()
		}
	}
	s.logBytes.Store(goodEnd - int64(headerSize))
	if s.logBytes.Load() < 0 {
		s.logBytes.Store(0)
	}

	s.wg.Add(1)
	go s.writeLoop()
	return s, res, nil
}

// replay scans the raw log contents, applying every valid record past the
// checkpoint onto res.Snap, and returns the offset of the last good byte.
// Damage (torn tail, CRC mismatch, op-number discontinuity) stops the scan:
// everything from the first bad byte on is reported for truncation.
func (s *Store) replay(raw []byte, res *RecoverResult) (int64, error) {
	if len(raw) < headerSize {
		return 0, nil
	}
	if string(raw[:len(logMagic)]) != logMagic || raw[len(logMagic)] != version {
		s.logf("durable %s: log header invalid, discarding file", s.cfg.Replica)
		return 0, nil
	}
	dedup := make(map[string]DedupEntry, len(res.Snap.Dedup))
	for _, e := range res.Snap.Dedup {
		dedup[e.Client] = e
	}
	cur := res.Snap
	off := headerSize
	for off < len(raw) {
		op, n, err := DecodeLogRecord(raw[off:])
		if err != nil {
			// Torn or corrupt tail: stop here; the caller truncates. A
			// record that fails validation is never applied.
			break
		}
		if op.OpNumber <= cur.OpNumber {
			// Covered by the checkpoint (a crash between checkpoint rename
			// and log truncation leaves such a prefix). Skip idempotently.
			off += n
			continue
		}
		if op.OpNumber != cur.OpNumber+1 {
			// Discontinuity: the log skips ops. Applying past a gap would
			// silently corrupt state, so recovery stops trusting the file
			// here.
			s.logf("durable %s: op-number gap (%d after %d), truncating",
				s.cfg.Replica, op.OpNumber, cur.OpNumber)
			break
		}
		cur.OpNumber = op.OpNumber
		cur.Counter = op.Counter
		if op.Client != "" {
			if e, ok := dedup[op.Client]; !ok || op.ClientSeq > e.Seq {
				dedup[op.Client] = DedupEntry{Client: op.Client, Seq: op.ClientSeq, Counter: op.Counter}
			}
		}
		res.Replayed++
		off += n
	}
	cur.Dedup = flattenDedup(dedup)
	res.Snap = cur
	return int64(off), nil
}

// flattenDedup renders a dedup map as a canonically ordered entry list.
func flattenDedup(m map[string]DedupEntry) []DedupEntry {
	if len(m) == 0 {
		return nil
	}
	out := make([]DedupEntry, 0, len(m))
	for _, e := range m {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Client < out[j].Client })
	return out
}

// Append queues one executed operation for the log. It does no I/O itself:
// the record is encoded into a pooled buffer and handed to the writer
// goroutine, so the caller's steady state allocates nothing. Appends after
// Close are dropped.
func (s *Store) Append(op Op) {
	size := opRecordSize(op)
	mb := giop.GetMsgBuf(size)
	encodeOpRecord(mb.Bytes(), op)
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		mb.Release()
		return
	}
	s.logBytes.Add(int64(size))
	s.ch <- wreq{buf: mb}
	s.mu.RUnlock()
}

// LogBytes returns how many record bytes have been appended since the last
// checkpoint — the incremental-checkpoint trigger.
func (s *Store) LogBytes() int64 { return s.logBytes.Load() }

// Checkpoint queues an incremental checkpoint: the snapshot is written to a
// temporary file, fsynced, atomically renamed over the previous checkpoint,
// and the op log is truncated to empty (every logged op is covered — see
// the ordering contract on Store). The snapshot's Dedup slice is owned by
// the store from this call on.
func (s *Store) Checkpoint(snap Snapshot) {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return
	}
	s.logBytes.Store(0)
	s.ch <- wreq{snap: &snap}
	s.mu.RUnlock()
}

// Barrier blocks until every previously queued append and checkpoint has
// been written and flushed (tests and orderly shutdown).
func (s *Store) Barrier() {
	done := make(chan struct{})
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return
	}
	s.ch <- wreq{done: done}
	s.mu.RUnlock()
	<-done
}

// Close drains the queue, flushes and syncs the log, and releases the
// files. (A hard process kill gets no such flush and loses up to flushDelay
// of appends; the explicit fault injector models tail loss
// deterministically instead — see FaultPlan.)
func (s *Store) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.ch)
	s.mu.Unlock()
	s.wg.Wait()
}

// Err returns the first write error the writer hit (nil-safe diagnostics;
// a store with a sticky error keeps accepting appends but drops them).
func (s *Store) Err() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.wErr
}

// Dropped returns how many appends were discarded after a wedge or write
// error.
func (s *Store) Dropped() int64 { return atomic.LoadInt64(&s.dropped) }

// flushDelay is the group-commit window: the first append that leaves
// bytes unflushed arms a deadline this far ahead, and every append that
// arrives before it expires shares its one file write. A killed process
// therefore loses at most this much acknowledged work from the log (the
// recovery handshake refetches it from any surviving peer) — far inside the
// power-loss window, which fsync policy already sets at one checkpoint
// interval.
const flushDelay = time.Millisecond

// writeLoop is the writer goroutine. Appends accumulate in the 64 KiB write
// buffer and reach the file when it fills, when a Barrier or Checkpoint asks,
// when the flush deadline expires, or at Close.
func (s *Store) writeLoop() {
	defer s.wg.Done()
	defer func() {
		s.flush()
		if !s.wedged {
			_ = s.f.Sync()
		}
		_ = s.f.Close()
	}()
	// The timer starts armed and simply finds nothing to flush; an explicit
	// flush leaves it armed too, so the deadline only ever comes early.
	deadline := time.NewTimer(flushDelay)
	defer deadline.Stop()
	armed := true
	for {
		select {
		case req, ok := <-s.ch:
			if !ok {
				return
			}
			s.handle(req)
			if !armed && s.w.Buffered() > 0 {
				deadline.Reset(flushDelay)
				armed = true
			}
		case <-deadline.C:
			armed = false
			s.flush()
		}
	}
}

func (s *Store) handle(req wreq) {
	switch {
	case req.buf != nil:
		s.handleAppend(req.buf)
	case req.snap != nil:
		s.handleCheckpoint(*req.snap)
	case req.done != nil:
		s.flush()
		close(req.done)
	}
}

func (s *Store) handleAppend(mb *giop.MsgBuf) {
	defer mb.Release()
	if s.wedged || s.wErr != nil {
		atomic.AddInt64(&s.dropped, 1)
		return
	}
	rec := mb.Bytes()
	a := s.cfg.Faults.takeAppend(s.cfg.Replica, len(rec))
	if a.corrupt && a.corruptAt < len(rec) {
		rec[a.corruptAt] ^= a.corruptXor
	}
	if a.torn {
		_, err := s.w.Write(rec[:a.tornBytes])
		s.noteErr(err)
		s.wedged = true
		s.logf("durable %s: torn write injected after %d/%d bytes, store wedged",
			s.cfg.Replica, a.tornBytes, len(rec))
		return
	}
	if a.segment > 0 {
		for off := 0; off < len(rec); off += a.segment {
			end := off + a.segment
			if end > len(rec) {
				end = len(rec)
			}
			if _, err := s.w.Write(rec[off:end]); err != nil {
				s.noteErr(err)
				return
			}
		}
		return
	}
	_, err := s.w.Write(rec)
	s.noteErr(err)
}

func (s *Store) handleCheckpoint(snap Snapshot) {
	if s.wedged || s.wErr != nil {
		return
	}
	s.flush()
	tmp := s.ckptPath() + ".tmp"
	if err := os.WriteFile(tmp, encodeCheckpointFile(snap), 0o644); err != nil {
		s.noteErr(err)
		return
	}
	if s.cfg.Faults.takeSync(s.cfg.Replica) {
		// Injected fsync failure: abandon this checkpoint (the previous one
		// and the log still cover the state).
		s.logf("durable %s: checkpoint fsync fault injected, keeping previous checkpoint", s.cfg.Replica)
		_ = os.Remove(tmp)
		return
	}
	if tf, err := os.OpenFile(tmp, os.O_RDWR, 0o644); err == nil {
		serr := tf.Sync()
		_ = tf.Close()
		if serr != nil {
			s.noteErr(serr)
			_ = os.Remove(tmp)
			return
		}
	}
	if err := os.Rename(tmp, s.ckptPath()); err != nil {
		s.noteErr(err)
		return
	}
	if d, err := os.Open(s.cfg.Dir); err == nil {
		_ = d.Sync() // best-effort directory durability
		_ = d.Close()
	}
	// Log-suffix truncation: everything in the log is covered by the
	// snapshot just persisted (ordering contract), so the suffix restarts
	// empty.
	if err := s.f.Truncate(int64(headerSize)); err != nil {
		s.noteErr(err)
		return
	}
	if _, err := s.f.Seek(int64(headerSize), io.SeekStart); err != nil {
		s.noteErr(err)
		return
	}
	s.w.Reset(logFile{s})
}

func (s *Store) flush() {
	if s.w != nil {
		s.noteErr(s.w.Flush())
	}
}

func (s *Store) noteErr(err error) {
	if err == nil || s.wErr != nil {
		return
	}
	s.mu.Lock()
	if s.wErr == nil {
		s.wErr = err
	}
	s.mu.Unlock()
	s.logf("durable %s: write error: %v", s.cfg.Replica, err)
}
