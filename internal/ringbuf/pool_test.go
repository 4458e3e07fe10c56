package ringbuf

import (
	"bytes"
	"fmt"
	"testing"

	"mvedsua/internal/sim"
	"mvedsua/internal/sysabi"
)

// poolModel drives a slabs[byte] through copyOf and put and checks the
// pool's invariants after every step: a buffer is never handed out twice
// without a put in between (no two outstanding buffers share storage, and
// nobody writes to a buffer while it is out), a copy equals its source,
// and nil stays nil while empty stays empty.
type poolModel struct {
	pool slabs[byte]
	out  []outstanding
	tag  byte
}

type outstanding struct {
	buf  []byte
	want []byte // what buf must still hold when it is given back
}

func (m *poolModel) copyOf(n int) error {
	m.tag++
	src := bytes.Repeat([]byte{m.tag}, n)
	b := m.pool.copyOf(src)
	if !bytes.Equal(b, src) || b == nil {
		return fmt.Errorf("copyOf(%d bytes of %#02x) = %d bytes %v...", n, m.tag, len(b), b[:min(len(b), 4)])
	}
	if n == 0 {
		return nil // empty copies own no storage
	}
	for _, o := range m.out {
		if &o.buf[:1][0] == &b[:1][0] {
			return fmt.Errorf("buffer %p handed out twice without a put in between", &b[0])
		}
	}
	m.out = append(m.out, outstanding{buf: b, want: src})
	return nil
}

func (m *poolModel) put(i int) error {
	if len(m.out) == 0 {
		return nil
	}
	i %= len(m.out)
	o := m.out[i]
	m.out = append(m.out[:i], m.out[i+1:]...)
	if !bytes.Equal(o.buf, o.want) {
		return fmt.Errorf("outstanding buffer %p was overwritten while out", &o.buf[0])
	}
	m.pool.put(o.buf)
	return nil
}

func (m *poolModel) checkNilAndEmpty() error {
	if b := m.pool.copyOf(nil); b != nil {
		return fmt.Errorf("copyOf(nil) = %v, want nil", b)
	}
	if b := m.pool.copyOf([]byte{}); b == nil || len(b) != 0 {
		return fmt.Errorf("copyOf(empty) = %v (nil %v), want empty non-nil", b, b == nil)
	}
	return nil
}

// runScript interprets an op script, one byte per op: the low two bits
// choose copy (0, 1), put (2) or the nil/empty check (3); the rest is the
// size (squared, so one byte reaches past 4 KiB and crosses every size
// class on the way) or the index of the buffer to give back.
func (m *poolModel) runScript(script []byte) error {
	for i, b := range script {
		var err error
		switch n := int(b >> 2); b & 3 {
		case 0, 1:
			err = m.copyOf(n*n + n)
		case 2:
			err = m.put(n)
		default:
			err = m.checkNilAndEmpty()
		}
		if err != nil {
			return fmt.Errorf("op %d (%#02x): %v", i, b, err)
		}
	}
	for len(m.out) > 0 {
		if err := m.put(0); err != nil {
			return err
		}
	}
	return nil
}

// FuzzPayloadPool: op script -> pool vs the set of outstanding buffers.
// The seed corpus is testdata/fuzz/FuzzPayloadPool, replayed by plain
// `go test`.
func FuzzPayloadPool(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		var m poolModel
		if err := m.runScript(script); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPoolRecyclesWithinClass: a buffer given back serves the next
// request of its size class, and one from another class is not stretched
// to fit.
func TestPoolRecyclesWithinClass(t *testing.T) {
	var p slabs[byte]
	a := p.get(100)
	if len(a) != 100 || cap(a) != 128 {
		t.Fatalf("get(100): len %d cap %d, want 100/128", len(a), cap(a))
	}
	p.put(a)
	if b := p.get(65); &b[0] != &a[0] || len(b) != 65 {
		t.Fatalf("get(65) after put: did not reuse the 128-byte buffer")
	}
	p.put(a)
	if b := p.get(129); &b[0] == &a[0] || cap(b) < 129 {
		t.Fatalf("get(129) reused a 128-byte buffer")
	}
	// A foreign buffer is filed under the class its capacity covers.
	p.put(make([]byte, 0, 200))
	if b := p.get(128); cap(b) != 128 && cap(b) != 200 {
		t.Fatalf("get(128): cap %d", cap(b))
	}
	if b := p.get(1); len(b) != 1 {
		t.Fatalf("get(1): len %d", len(b))
	}
}

// TestTakerOwnsWhatItTakes: entries taken through three cursors at
// different lags stay intact however long they are held — while the
// producer overwrites its own buffers, the ring reuses its slots, and one
// consumer recycles what it took — and no two takers share storage.
func TestTakerOwnsWhatItTakes(t *testing.T) {
	const entries = 200
	s := sim.New()
	mb := NewMulti(s, 4)
	cursors := []*Cursor{mb.OpenCursor("fast"), mb.OpenCursor("slow"), mb.OpenCursor("recycler")}
	payload := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 1+i%90) }
	ready := func(i int) []int { return []int{i, i + 1} }

	s.Go("producer", func(tk *sim.Task) {
		for i := 0; i < entries; i++ {
			buf, data, rdy := payload(i), payload(i+1), ready(i)
			mb.Put(tk, Entry{Kind: KindSyscall, Event: sysabi.Event{
				Call: sysabi.Call{Op: sysabi.OpWrite, Buf: buf}, Result: sysabi.Result{Data: data, Ready: rdy}}})
			// The producer's buffers are its own again the moment Put returns.
			for j := range buf {
				buf[j] = 0xEE
			}
			data[0], rdy[0] = 0xEE, -1
		}
		mb.Close()
	})
	held := make([][]Entry, len(cursors))
	for ci, c := range cursors {
		ci, c := ci, c
		s.Go(c.name, func(tk *sim.Task) {
			for {
				if ci == 1 {
					tk.Yield() // lag behind, so the ring fills and slots are reused
				}
				e, ok := c.Get(tk)
				if !ok {
					return
				}
				if ci == 2 {
					if !bytes.Equal(e.Event.Call.Buf, payload(len(held[ci]))) {
						t.Errorf("recycler entry %d: Buf = %v", len(held[ci]), e.Event.Call.Buf)
					}
					mb.Recycle(&e.Event)
					if e.Event.Call.Buf != nil || e.Event.Result.Data != nil || e.Event.Result.Ready != nil {
						t.Errorf("Recycle left references behind")
					}
				}
				held[ci] = append(held[ci], e)
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	seen := map[*byte]string{}
	for ci, c := range cursors[:2] {
		if len(held[ci]) != entries {
			t.Fatalf("%s took %d entries, want %d", c.name, len(held[ci]), entries)
		}
		for i, e := range held[ci] {
			if !bytes.Equal(e.Event.Call.Buf, payload(i)) || !bytes.Equal(e.Event.Result.Data, payload(i+1)) ||
				fmt.Sprint(e.Event.Result.Ready) != fmt.Sprint(ready(i)) {
				t.Fatalf("%s entry %d changed while held: %v", c.name, i, e.Event)
			}
			for _, b := range [][]byte{e.Event.Call.Buf, e.Event.Result.Data} {
				who := fmt.Sprintf("%s entry %d", c.name, i)
				if prev, dup := seen[&b[0]]; dup {
					t.Fatalf("%s shares storage with %s", who, prev)
				}
				seen[&b[0]] = who
			}
		}
	}
}

// TestReclaimedPayloadsAreRecycled: entries no cursor will take (the
// cursor closed, the ring was reset) give their buffers back, so the next
// append of that size allocates nothing.
func TestReclaimedPayloadsAreRecycled(t *testing.T) {
	s := sim.New()
	mb := NewMulti(s, 8)
	e := Entry{Kind: KindSyscall, Event: sysabi.Event{Call: sysabi.Call{Op: sysabi.OpWrite, Buf: make([]byte, 4096)}}}
	pooled := func() int { return len(mb.pool.bytes.free[12]) } // the 4 KiB class
	s.Go("t", func(tk *sim.Task) {
		c := mb.OpenCursor("c")
		mb.Put(tk, e)
		mb.Put(tk, e)
		c.Close() // both entries reclaimed untaken
		if pooled() != 2 {
			t.Fatalf("after Close the pool holds %d 4 KiB buffers, want 2", pooled())
		}
		mb.OpenCursor("c")
		if n := testing.AllocsPerRun(10, func() {
			mb.Put(tk, e)
			mb.Put(tk, e)
			mb.Reset()
			mb.OpenCursor("c")
		}); n > 2 { // the cursor and, after a reset, the cursor list
			t.Errorf("a put-put-reset round allocates %v objects, want only the cursor and its list", n)
		}
		if pooled() != 2 {
			t.Fatalf("after Reset the pool holds %d 4 KiB buffers, want 2", pooled())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}
