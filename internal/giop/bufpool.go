package giop

import "sync"

// Pooled inbound message buffers.
//
// The encode/send side became allocation-free in the previous transport
// pass (pooled CDR encoders, single-buffer header+body); this is the
// receive-side mirror. Every connection reader takes its message bodies
// from a size-classed sync.Pool and releases them once the reply/dispatch
// path has finished decoding, so a steady-state invocation cycle recycles
// the same few buffers instead of allocating one body (plus copies) per
// message.
//
// Ownership rule (docs/PROTOCOL.md §8): the reader that obtains a MsgBuf
// owns it until it hands it off (e.g. through a reply channel or to a
// dispatch goroutine); exactly one owner calls Release, after which the
// buffer — and everything borrowed from it by the zero-copy decoders — is
// dead.

// msgBufClasses are the pooled capacity classes. Class 0 covers the common
// small request/reply bodies, class 1 typical argument payloads, class 2
// fragmented bulk messages. Bodies larger than the top class are allocated
// directly and dropped on Release.
var msgBufClasses = [...]int{512, 8 << 10, 64 << 10}

var msgBufPools [len(msgBufClasses)]sync.Pool

func init() {
	for i := range msgBufPools {
		class := msgBufClasses[i]
		msgBufPools[i].New = func() any {
			return &MsgBuf{b: make([]byte, 0, class)}
		}
	}
}

// MsgBuf is one pooled message-body buffer. The wrapper struct (rather than
// a bare slice) round-trips through sync.Pool without boxing allocations,
// which is what keeps Release itself free.
type MsgBuf struct {
	b []byte
}

// Bytes returns the buffer's current contents.
func (m *MsgBuf) Bytes() []byte { return m.b }

// classFor returns the index of the smallest class holding n, or -1 when n
// exceeds the top class.
func classFor(n int) int {
	for i, c := range msgBufClasses {
		if n <= c {
			return i
		}
	}
	return -1
}

// GetMsgBuf returns a pooled buffer with len n (contents undefined). Bodies
// beyond the top size class get a dedicated allocation; Release then simply
// drops them.
func GetMsgBuf(n int) *MsgBuf {
	ci := classFor(n)
	if ci < 0 {
		return &MsgBuf{b: make([]byte, n)}
	}
	m := msgBufPools[ci].Get().(*MsgBuf)
	m.b = m.b[:n]
	return m
}

// Release returns the buffer to its size-class pool. The releasing caller
// must not touch the MsgBuf, its Bytes, or any slice borrowed from them
// afterwards. Release on nil is a no-op so error paths can release
// unconditionally.
func (m *MsgBuf) Release() {
	if m == nil {
		return
	}
	c := cap(m.b)
	for i, class := range msgBufClasses {
		if c == class {
			m.b = m.b[:0]
			msgBufPools[i].Put(m)
			return
		}
	}
	// Oversized or foreign backing array: let the GC have it.
}

// grow extends m to length n, switching to a larger class (and recycling
// the old backing array) when the current one is too small. Fragment
// reassembly uses it to append continuation bodies in place.
func (m *MsgBuf) grow(n int) {
	if n <= cap(m.b) {
		m.b = m.b[:n]
		return
	}
	old := m.b
	var nb []byte
	if ci := classFor(n); ci >= 0 {
		r := msgBufPools[ci].Get().(*MsgBuf)
		nb = r.b[:n]
		copy(nb, old)
		// Hand the old array back under the recycled wrapper — only after
		// the copy above: once released, a concurrent reader may own it.
		r.b = old
		r.Release()
	} else {
		// Beyond the top class: grow geometrically so a long fragment train
		// does not reallocate per fragment.
		capNeed := 2 * cap(old)
		if capNeed < n {
			capNeed = n
		}
		nb = make([]byte, n, capNeed)
		copy(nb, old)
		(&MsgBuf{b: old}).Release()
	}
	m.b = nb
}
