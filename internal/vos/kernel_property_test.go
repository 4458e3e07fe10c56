package vos

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"mvedsua/internal/sim"
	"mvedsua/internal/sysabi"
)

// Property: a stream delivers exactly the bytes written, in order,
// regardless of how writes and reads are sized and interleaved.
func TestStreamIntegrityProperty(t *testing.T) {
	f := func(chunks [][]byte, readSizes []uint8) bool {
		if len(chunks) > 20 {
			chunks = chunks[:20]
		}
		var want bytes.Buffer
		for _, c := range chunks {
			want.Write(c)
		}
		s := sim.New()
		k := NewKernel(s)
		var got bytes.Buffer
		ok := true
		s.Go("server", func(tk *sim.Task) {
			lfd := int(k.Invoke(tk, sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{1, 0}}).Ret)
			fd := int(k.Invoke(tk, sysabi.Call{Op: sysabi.OpAccept, FD: lfd}).Ret)
			i := 0
			for {
				size := int64(64)
				if len(readSizes) > 0 {
					size = int64(readSizes[i%len(readSizes)]%63) + 1
				}
				i++
				r := k.Invoke(tk, sysabi.Call{Op: sysabi.OpRead, FD: fd, Args: [2]int64{size, 0}})
				if !r.OK() || r.Ret == 0 {
					return
				}
				got.Write(r.Data)
			}
		})
		s.Go("client", func(tk *sim.Task) {
			fd := int(k.Invoke(tk, sysabi.Call{Op: sysabi.OpConnect, Args: [2]int64{1, 0}}).Ret)
			for _, c := range chunks {
				if len(c) == 0 {
					continue
				}
				r := k.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: c})
				if !r.OK() || int(r.Ret) != len(c) {
					ok = false
				}
				if len(c)%3 == 0 {
					tk.Yield() // vary interleaving
				}
			}
			k.Invoke(tk, sysabi.Call{Op: sysabi.OpClose, FD: fd})
		})
		if err := s.Run(); err != nil {
			return false
		}
		return ok && bytes.Equal(got.Bytes(), want.Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: concurrent connections are isolated — each client reads back
// exactly what the echo server was sent on its own connection.
func TestConnectionIsolationProperty(t *testing.T) {
	f := func(nRaw uint8, seed uint8) bool {
		n := int(nRaw%5) + 2
		s := sim.New()
		k := NewKernel(s)
		s.Go("server", func(tk *sim.Task) {
			lfd := int(k.Invoke(tk, sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{1, 0}}).Ret)
			efd := int(k.Invoke(tk, sysabi.Call{Op: sysabi.OpEpollCreate}).Ret)
			k.Invoke(tk, sysabi.Call{Op: sysabi.OpEpollCtl, FD: efd, Args: [2]int64{int64(lfd), 1}})
			served := 0
			for served < n {
				r := k.Invoke(tk, sysabi.Call{Op: sysabi.OpEpollWait, FD: efd, Args: [2]int64{16, 0}})
				for _, fd := range r.Ready {
					if fd == lfd {
						nr := k.Invoke(tk, sysabi.Call{Op: sysabi.OpAccept, FD: lfd})
						k.Invoke(tk, sysabi.Call{Op: sysabi.OpEpollCtl, FD: efd, Args: [2]int64{nr.Ret, 1}})
						continue
					}
					rr := k.Invoke(tk, sysabi.Call{Op: sysabi.OpRead, FD: fd, Args: [2]int64{128, 0}})
					if !rr.OK() || rr.Ret == 0 {
						k.Invoke(tk, sysabi.Call{Op: sysabi.OpEpollCtl, FD: efd, Args: [2]int64{int64(fd), 0}})
						k.Invoke(tk, sysabi.Call{Op: sysabi.OpClose, FD: fd})
						served++
						continue
					}
					k.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: rr.Data})
				}
			}
		})
		ok := true
		for i := 0; i < n; i++ {
			i := i
			s.Go(fmt.Sprintf("client%d", i), func(tk *sim.Task) {
				fd := int(k.Invoke(tk, sysabi.Call{Op: sysabi.OpConnect, Args: [2]int64{1, 0}}).Ret)
				msg := fmt.Sprintf("msg-%d-%d", i, seed)
				k.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: []byte(msg)})
				r := k.Invoke(tk, sysabi.Call{Op: sysabi.OpRead, FD: fd, Args: [2]int64{128, 0}})
				if string(r.Data) != msg {
					ok = false
				}
				k.Invoke(tk, sysabi.Call{Op: sysabi.OpClose, FD: fd})
			})
		}
		if err := s.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: the filesystem round-trips arbitrary content through
// fwrite/fread at arbitrary chunk sizes.
func TestFileRoundTripProperty(t *testing.T) {
	f := func(content []byte, chunkRaw uint8) bool {
		chunk := int64(chunkRaw%100) + 1
		s := sim.New()
		k := NewKernel(s)
		ok := true
		s.Go("t", func(tk *sim.Task) {
			fd := int(k.Invoke(tk, sysabi.Call{Op: sysabi.OpOpen, Path: "/f", Args: [2]int64{sysabi.OpenWrite, 0}}).Ret)
			k.Invoke(tk, sysabi.Call{Op: sysabi.OpFWrite, FD: fd, Buf: content})
			k.Invoke(tk, sysabi.Call{Op: sysabi.OpClose, FD: fd})
			st := k.Invoke(tk, sysabi.Call{Op: sysabi.OpStat, Path: "/f"})
			if int(st.Ret) != len(content) {
				ok = false
				return
			}
			fd = int(k.Invoke(tk, sysabi.Call{Op: sysabi.OpOpen, Path: "/f", Args: [2]int64{sysabi.OpenRead, 0}}).Ret)
			var got bytes.Buffer
			for {
				r := k.Invoke(tk, sysabi.Call{Op: sysabi.OpFRead, FD: fd, Args: [2]int64{chunk, 0}})
				if r.Ret == 0 {
					break
				}
				got.Write(r.Data)
			}
			ok = bytes.Equal(got.Bytes(), content)
		})
		if err := s.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// EpollWait with a bounded timeout returns empty on quiet descriptors at
// exactly the requested deadline.
func TestEpollWaitTimeout(t *testing.T) {
	s := sim.New()
	k := NewKernel(s)
	s.Go("t", func(tk *sim.Task) {
		lfd := int(k.Invoke(tk, sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{1, 0}}).Ret)
		efd := int(k.Invoke(tk, sysabi.Call{Op: sysabi.OpEpollCreate}).Ret)
		k.Invoke(tk, sysabi.Call{Op: sysabi.OpEpollCtl, FD: efd, Args: [2]int64{int64(lfd), 1}})
		start := tk.Now()
		r := k.Invoke(tk, sysabi.Call{Op: sysabi.OpEpollWait, FD: efd, Args: [2]int64{8, int64(25 * time.Millisecond)}})
		if !r.OK() || r.Ret != 0 {
			t.Errorf("timed-out wait = %+v", r)
		}
		if got := tk.Now() - start; got != 25*time.Millisecond {
			t.Errorf("waited %v, want 25ms", got)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// refKernel is the reference model of the descriptor table, the epoll
// sets and the files: maps keyed by fd and a sort of the ready list, the
// way the kernel kept them before it moved to slices, and every read's
// data a copy of its own. It models what a script can observe without
// blocking.
type refKernel struct {
	fds    map[int]*refObj
	nextFD int
	ports  map[int64]*refObj
	files  map[string]*[]byte
}

type refObj struct {
	kind    byte         // 'l'istener, 'e'ndpoint, e'p'oll, 'f'ile
	port    int64        // listener
	pending []*refObj    // listener: connections awaiting accept
	inbox   []byte       // endpoint
	closed  bool         // endpoint, listener
	peer    *refObj      // endpoint
	watched map[int]bool // epoll
	data    *[]byte      // file: its contents
	offset  int          // file
	flags   int64        // file
}

func newRefKernel() *refKernel {
	return &refKernel{fds: map[int]*refObj{}, nextFD: 3, ports: map[int64]*refObj{}, files: map[string]*[]byte{}}
}

func (m *refKernel) alloc(o *refObj) int64 {
	fd := m.nextFD
	m.nextFD++
	m.fds[fd] = o
	return int64(fd)
}

func (m *refKernel) ready(fd int) bool {
	switch o := m.fds[fd]; {
	case o == nil:
		return false
	case o.kind == 'e':
		return len(o.inbox) > 0 || o.peer.closed || o.closed
	case o.kind == 'l':
		return len(o.pending) > 0
	case o.kind == 'f':
		return true
	}
	return false
}

// wouldBlock reports whether the kernel would park the caller on c.
func (m *refKernel) wouldBlock(c sysabi.Call) bool {
	o := m.fds[c.FD]
	switch {
	case o == nil:
		return false
	case c.Op == sysabi.OpAccept && o.kind == 'l':
		return len(o.pending) == 0
	case c.Op == sysabi.OpRead && o.kind == 'e':
		return c.Args[0] > 0 && len(o.inbox) == 0 && !o.peer.closed
	}
	return false
}

// invoke executes c on the model. epoll_wait is always issued with a
// timeout, so an empty ready list comes back as Ret 0.
func (m *refKernel) invoke(c sysabi.Call) sysabi.Result {
	bad := sysabi.Result{Err: sysabi.EBADF}
	o := m.fds[c.FD]
	switch c.Op {
	case sysabi.OpSocket:
		if m.ports[c.Args[0]] != nil {
			return sysabi.Result{Err: sysabi.EINVAL}
		}
		l := &refObj{kind: 'l', port: c.Args[0]}
		m.ports[c.Args[0]] = l
		return sysabi.Result{Ret: m.alloc(l)}
	case sysabi.OpConnect:
		l := m.ports[c.Args[0]]
		if l == nil {
			return sysabi.Result{Err: sysabi.ENOENT}
		}
		server, client := &refObj{kind: 'e'}, &refObj{kind: 'e'}
		server.peer, client.peer = client, server
		l.pending = append(l.pending, server)
		return sysabi.Result{Ret: m.alloc(client)}
	case sysabi.OpAccept:
		if o == nil || o.kind != 'l' {
			return bad
		}
		ep := o.pending[0]
		o.pending = o.pending[1:]
		return sysabi.Result{Ret: m.alloc(ep)}
	case sysabi.OpWrite:
		if o == nil || o.kind != 'e' {
			return bad
		}
		if o.peer.closed {
			return sysabi.Result{Err: sysabi.EPIPE}
		}
		o.peer.inbox = append(o.peer.inbox, c.Buf...)
		return sysabi.Result{Ret: int64(len(c.Buf))}
	case sysabi.OpRead:
		if o == nil || o.kind != 'e' {
			return bad
		}
		if c.Args[0] <= 0 {
			return sysabi.Result{Err: sysabi.EINVAL}
		}
		if len(o.inbox) == 0 {
			return sysabi.Result{} // EOF: the peer closed
		}
		n := min(len(o.inbox), int(c.Args[0]))
		data := append([]byte(nil), o.inbox[:n]...)
		o.inbox = o.inbox[n:]
		return sysabi.Result{Ret: int64(n), Data: data}
	case sysabi.OpOpen:
		data := m.files[c.Path]
		switch {
		case data == nil && c.Args[0] == sysabi.OpenRead:
			return sysabi.Result{Err: sysabi.ENOENT}
		case data == nil:
			data = new([]byte)
			m.files[c.Path] = data
		case c.Args[0] == sysabi.OpenWrite:
			*data = nil
		}
		f := &refObj{kind: 'f', data: data, flags: c.Args[0]}
		if c.Args[0] == sysabi.OpenAppend {
			f.offset = len(*data)
		}
		return sysabi.Result{Ret: m.alloc(f)}
	case sysabi.OpFRead:
		if o == nil || o.kind != 'f' {
			return bad
		}
		if c.Args[0] <= 0 {
			return sysabi.Result{Err: sysabi.EINVAL}
		}
		n := min(len(*o.data)-o.offset, int(c.Args[0]))
		if n <= 0 {
			return sysabi.Result{} // EOF
		}
		data := append([]byte(nil), (*o.data)[o.offset:o.offset+n]...)
		o.offset += n
		return sysabi.Result{Ret: int64(n), Data: data}
	case sysabi.OpFWrite:
		if o == nil || o.kind != 'f' {
			return bad
		}
		if o.flags == sysabi.OpenRead {
			return sysabi.Result{Err: sysabi.EINVAL}
		}
		if end := o.offset + len(c.Buf); end > len(*o.data) {
			*o.data = append(*o.data, make([]byte, end-len(*o.data))...)
		}
		o.offset += copy((*o.data)[o.offset:], c.Buf)
		return sysabi.Result{Ret: int64(len(c.Buf))}
	case sysabi.OpClose:
		if o == nil {
			return bad
		}
		delete(m.fds, c.FD)
		o.closed = true
		if o.kind == 'l' {
			delete(m.ports, o.port)
		}
		return sysabi.Result{}
	case sysabi.OpEpollCreate:
		return sysabi.Result{Ret: m.alloc(&refObj{kind: 'p', watched: map[int]bool{}})}
	case sysabi.OpEpollCtl:
		if o == nil || o.kind != 'p' {
			return bad
		}
		target := int(c.Args[0])
		if c.Args[1] == 1 {
			if m.fds[target] == nil {
				return bad
			}
			o.watched[target] = true
		} else {
			delete(o.watched, target)
		}
		return sysabi.Result{}
	case sysabi.OpEpollWait:
		if o == nil || o.kind != 'p' {
			return bad
		}
		max := int(c.Args[0])
		if max <= 0 {
			max = 64
		}
		var fds []int
		for fd := range o.watched {
			if m.fds[fd] == nil {
				delete(o.watched, fd)
			} else if m.ready(fd) {
				fds = append(fds, fd)
			}
		}
		if len(fds) == 0 {
			return sysabi.Result{}
		}
		sort.Ints(fds)
		if len(fds) > max {
			fds = fds[:max]
		}
		return sysabi.Result{Ret: int64(len(fds)), Ready: fds}
	}
	return sysabi.Result{Err: sysabi.EINVAL}
}

// Model-based test of the descriptor table, the epoll sets and the
// files: random scripts run against the kernel and against refKernel, and
// every step must agree on the result — fd numbers, errnos, data, the
// Ready list with its order and max truncation — and on the number of
// open fds. Scripts reach double adds, dels of unwatched fds, fds closed
// while watched, negative and out-of-range fds, ops outside the table,
// and fwrites over bytes another fd has read. Half the reads and freads
// offer no buffer and are lent a view of the kernel's bytes, to which the
// script sometimes appends; at the fd's next read or close the view must
// still hold what the model read.
func TestDescriptorTablesMatchReferenceModel(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := sim.New()
		k := NewKernel(s)
		ref := newRefKernel()
		var trace []string
		s.Go("script", func(tk *sim.Task) {
			offer := make([]byte, 0, 64)
			// views holds, per fd, the last view a read of it was lent
			// and the bytes the model read then.
			type view struct{ got, want []byte }
			views := map[int]view{}
			// anyFD is mostly a descriptor the script has seen — open,
			// closed or of the wrong kind — and sometimes one that never
			// existed; epollFD and sockFD aim at the kind an op wants, so
			// the sets fill up and several fds are ready at once.
			var epolls, socks, files []int
			anyFD := func() int {
				if rng.Intn(8) == 0 {
					return []int{-1, 0, 2, ref.nextFD, ref.nextFD + 7, 1 << 40, -1 << 40}[rng.Intn(7)]
				}
				return 3 + rng.Intn(ref.nextFD-2)
			}
			oneOf := func(fds []int) int {
				if len(fds) == 0 || rng.Intn(6) == 0 {
					return anyFD()
				}
				return fds[rng.Intn(len(fds))]
			}
			path := func() string { return []string{"/a", "/b"}[rng.Intn(2)] }
			for step := 0; step < 600; step++ {
				var c sysabi.Call
				switch rng.Intn(20) {
				case 0:
					c = sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{int64(1 + rng.Intn(3)), 0}}
				case 1, 2:
					c = sysabi.Call{Op: sysabi.OpConnect, Args: [2]int64{int64(1 + rng.Intn(3)), 0}}
				case 3, 4:
					c = sysabi.Call{Op: sysabi.OpAccept, FD: oneOf(socks)}
				case 5, 6:
					buf := make([]byte, 1+rng.Intn(40))
					rng.Read(buf)
					c = sysabi.Call{Op: sysabi.OpWrite, FD: oneOf(socks), Buf: buf}
				case 7:
					c = sysabi.Call{Op: sysabi.OpRead, FD: oneOf(socks), Args: [2]int64{int64(rng.Intn(50) - 2), 0}}
					if rng.Intn(2) == 0 {
						c.Buf = offer
					}
				case 8:
					c = sysabi.Call{Op: sysabi.OpClose, FD: anyFD()}
				case 9:
					c = sysabi.Call{Op: sysabi.OpEpollCreate}
				case 10, 11, 12:
					c = sysabi.Call{Op: sysabi.OpEpollCtl, FD: oneOf(epolls), Args: [2]int64{int64(oneOf(socks)), int64(rng.Intn(4))}}
				case 13, 14:
					c = sysabi.Call{Op: sysabi.OpEpollWait, FD: oneOf(epolls), Args: [2]int64{int64(rng.Intn(6) - 1), 1}}
				case 15:
					c = sysabi.Call{Op: []sysabi.Op{-1, sysabi.OpExit + 1, 1 << 30, sysabi.OpInvalid}[rng.Intn(4)], FD: anyFD()}
				case 16:
					c = sysabi.Call{Op: sysabi.OpOpen, Path: path(), Args: [2]int64{int64(rng.Intn(3)), 0}}
				case 17, 18:
					c = sysabi.Call{Op: sysabi.OpFRead, FD: oneOf(files), Args: [2]int64{int64(rng.Intn(50) - 2), 0}}
					if rng.Intn(2) == 0 {
						c.Buf = offer
					}
				case 19:
					buf := make([]byte, 1+rng.Intn(40))
					rng.Read(buf)
					c = sysabi.Call{Op: sysabi.OpFWrite, FD: oneOf(files), Buf: buf}
				}
				if ref.wouldBlock(c) {
					continue
				}
				trace = append(trace, fmt.Sprintf("%v fd=%d args=%v", c.Op, c.FD, c.Args))
				if v, ok := views[c.FD]; ok && (c.Op == sysabi.OpRead || c.Op == sysabi.OpFRead || c.Op == sysabi.OpClose) {
					if !bytes.Equal(v.got, v.want) {
						t.Errorf("seed %d step %d: before %s, the view its last read was lent reads %q, the model read %q\nscript: %v",
							seed, step, trace[len(trace)-1], v.got, v.want, trace)
						return
					}
					delete(views, c.FD)
				}
				want, got := ref.invoke(c), k.Invoke(tk, c)
				switch {
				case !want.OK():
				case c.Op == sysabi.OpEpollCreate:
					epolls = append(epolls, int(want.Ret))
				case c.Op == sysabi.OpSocket || c.Op == sysabi.OpConnect || c.Op == sysabi.OpAccept:
					socks = append(socks, int(want.Ret))
				case c.Op == sysabi.OpOpen:
					files = append(files, int(want.Ret))
				case (c.Op == sysabi.OpRead || c.Op == sysabi.OpFRead) && c.Buf == nil && got.Ret > 0:
					views[c.FD] = view{got.Data, want.Data}
					if rng.Intn(2) == 0 {
						_ = append(got.Data, "appended by the holder"...)
					}
				}
				if got.Ret != want.Ret || got.Err != want.Err || !bytes.Equal(got.Data, want.Data) ||
					(got.Data == nil) != (want.Data == nil) || !reflect.DeepEqual(got.Ready, want.Ready) || k.OpenFDs() != len(ref.fds) {
					t.Errorf("seed %d step %d: %s = %+v with %d fds open, the model says %+v with %d\nscript: %v",
						seed, step, trace[len(trace)-1], got, k.OpenFDs(), want, len(ref.fds), trace)
					return
				}
			}
		})
		if err := s.Run(); err != nil {
			t.Fatalf("seed %d: Run: %v", seed, err)
		}
		if t.Failed() {
			return
		}
	}
}
