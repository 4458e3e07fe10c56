package ringbuf

import (
	"math/bits"

	"mvedsua/internal/sysabi"
)

// slabs is a free list of recycled []T buffers in power-of-two size
// classes: class c holds buffers whose capacity is at least 1<<c, so any
// of them serves a request of up to 1<<c elements. It belongs to one ring
// and therefore to one scheduler: no locking, and nothing is shared
// across shards. It never allocates ahead of demand, so it holds at most
// the buffers that were once in flight.
type slabs[T any] struct {
	free [bits.UintSize + 1][][]T
}

// get returns a buffer of length n (n >= 1) whose contents are
// unspecified, recycled when the size class has one.
func (s *slabs[T]) get(n int) []T {
	c := bits.Len(uint(n - 1))
	if f := s.free[c]; len(f) > 0 {
		b := f[len(f)-1]
		f[len(f)-1] = nil // the pool must not keep a handed-out buffer reachable
		s.free[c] = f[:len(f)-1]
		return b[:n]
	}
	return make([]T, n, 1<<c)
}

// put gives b back. The caller must hold the only reference. Buffers the
// pool did not allocate are welcome too: each is filed under the largest
// class its capacity covers.
func (s *slabs[T]) put(b []T) {
	if cap(b) == 0 {
		return
	}
	c := bits.Len(uint(cap(b))) - 1
	s.free[c] = append(s.free[c], b[:0])
}

// copyOf returns a copy of src in a recycled buffer. Like sysabi's Clone
// it keeps nil nil and empty empty: an EOF read carries nil Data, and
// trace text and reflect.DeepEqual tell the two apart. (The empty copy is
// a fresh one: src may be an empty view of storage its owner still uses.)
func (s *slabs[T]) copyOf(src []T) []T {
	switch {
	case src == nil:
		return nil
	case len(src) == 0:
		return []T{}
	}
	b := s.get(len(src))
	copy(b, src)
	return b
}

// payloadPool recycles the three payload slices an event can carry.
type payloadPool struct {
	bytes slabs[byte] // Call.Buf, Result.Data
	ints  slabs[int]  // Result.Ready
}

// adopt replaces each payload of ev by a copy in a recycled buffer. Most
// events carry none, so the checks stay out here and that case calls
// nothing.
func (p *payloadPool) adopt(ev *sysabi.Event) {
	if ev.Call.Buf != nil {
		ev.Call.Buf = p.bytes.copyOf(ev.Call.Buf)
	}
	if ev.Result.Data != nil {
		ev.Result.Data = p.bytes.copyOf(ev.Result.Data)
	}
	if ev.Result.Ready != nil {
		ev.Result.Ready = p.ints.copyOf(ev.Result.Ready)
	}
}

// recycle gives every payload of ev back and clears the references.
func (p *payloadPool) recycle(ev *sysabi.Event) {
	if ev.Call.Buf != nil {
		p.bytes.put(ev.Call.Buf)
		ev.Call.Buf = nil
	}
	if ev.Result.Data != nil {
		p.bytes.put(ev.Result.Data)
		ev.Result.Data = nil
	}
	if ev.Result.Ready != nil {
		p.ints.put(ev.Result.Ready)
		ev.Result.Ready = nil
	}
}
