package orb

import (
	"net"
	"runtime"
	"sync"
	"sync/atomic"

	"mead/internal/cdr"
)

// connWriter serializes concurrent message writes on one connection and
// coalesces them. Each writer announces itself (pending) before taking the
// lock; after queueing its frame, the last writer out flushes the whole
// queue as ONE vectored write (net.Buffers → writev on TCP, or the
// interposed connection's own WriteBuffers), so a burst of concurrent frames
// leaves in a single syscall without ever being copied into an intermediate
// coalescing buffer. Every frame on the wire is still a standalone standard
// GIOP message.
//
// Frames queue as segments that alias the pooled CDR encoders that built
// them (writeEncoder): the writer owns each encoder from enqueue until its
// bytes are on the wire, then Releases it — this is what lets the encode
// path skip the exact-size copy-out. Ownership rules are documented in
// docs/PROTOCOL.md §10.
type connWriter struct {
	conn net.Conn
	// solo marks a connection with one writer at a time by construction (a
	// client connection owned by one reference, which serializes its calls):
	// never a second frame to coalesce with — a fact, not a guess from a count.
	solo    bool
	pending atomic.Int64

	mu    sync.Mutex
	err   error          // sticky transport error; fails later writers fast
	bufs  net.Buffers    // queued wire segments, flushed last-writer-out
	vec   net.Buffers    // the slice header WriteTo consumes; a local would escape
	owned []*cdr.Encoder // pooled encoders backing queued segments
}

// write sends one complete message — msg, backed by the pooled encoder e when
// e is non-nil (as returned by the EncodeRequestPooled family). Ownership of e
// transfers to the writer, which Releases it once the bytes are on the wire.
// The message is queued, and flushed unless another writer has already
// committed to following it; on a solo connection it goes straight to the
// transport instead.
func (w *connWriter) write(e *cdr.Encoder, msg []byte) error {
	if w.solo {
		_, err := w.conn.Write(msg)
		if e != nil {
			e.Release()
		}
		return err
	}
	return w.enqueue(e, msg)
}

// writeEncoder writes the message held in a pooled encoder.
func (w *connWriter) writeEncoder(e *cdr.Encoder) error {
	return w.write(e, e.Bytes())
}

// enqueue adds one message (with the encoder backing it, if pooled) and runs
// the last-writer-out flush protocol. The Gosched between enqueueing and the
// flush decision lets every already-runnable caller queue its frame first;
// under a burst the whole queue then leaves in a single vectored write, which
// matters most when GOMAXPROCS is small and writers would otherwise run (and
// flush) strictly one after another.
func (w *connWriter) enqueue(owned *cdr.Encoder, msg []byte) error {
	w.pending.Add(1)
	w.mu.Lock()
	err := w.err
	if err == nil {
		w.bufs = append(w.bufs, msg)
		if owned != nil {
			w.owned = append(w.owned, owned)
		}
	} else if owned != nil {
		owned.Release()
	}
	w.mu.Unlock()

	runtime.Gosched()
	if w.pending.Add(-1) == 0 {
		w.mu.Lock()
		if ferr := w.flushLocked(); err == nil {
			err = ferr
		}
		w.mu.Unlock()
	}
	return err
}

// buffersWriter is a connection that takes a whole flush in one call.
// net.Buffers.WriteTo reaches writev only on the net package's own
// connections and degrades to one Write per segment on anything layered over
// them; the MEAD interceptor implements this instead, so a burst stays one
// transport write under it too.
type buffersWriter interface {
	WriteBuffers(v net.Buffers) (int64, error)
}

// flushLocked sends every queued segment in one vectored write and releases
// the encoders backing them.
func (w *connWriter) flushLocked() error {
	if w.err != nil {
		w.releaseLocked()
		return w.err
	}
	if len(w.bufs) == 0 {
		return nil
	}
	var err error
	if bw, ok := w.conn.(buffersWriter); ok {
		_, err = bw.WriteBuffers(w.bufs)
	} else {
		// WriteTo via a copy of the slice header: consume() advances it and
		// nils entries as they drain, while w.bufs keeps the backing array
		// for reuse.
		w.vec = w.bufs
		_, err = w.vec.WriteTo(w.conn)
		w.vec = nil
	}
	w.releaseLocked()
	if err != nil {
		w.err = err
	}
	return err
}

// releaseLocked recycles the encoders behind the queued segments and resets
// the queue, keeping both backing arrays for the next flush.
func (w *connWriter) releaseLocked() {
	for i, e := range w.owned {
		e.Release()
		w.owned[i] = nil
	}
	w.owned = w.owned[:0]
	clear(w.bufs)
	w.bufs = w.bufs[:0]
}
