// Package vos implements the virtual operating system the servers run on:
// stream sockets, an in-memory filesystem, epoll-like readiness, a virtual
// clock, and logical process ids. It executes the virtual syscall ABI
// defined in internal/sysabi and stands in for the Linux kernel of the
// paper's testbed (see DESIGN.md §1 for the substitution rationale).
//
// Reads have read(2) semantics: a read or fread may offer its
// destination as Call.Buf[:0] — capacity is the offer, length stays 0 —
// and the kernel fills it and returns it as Result.Data. A call that
// offers nothing, or less than the bytes available, is lent a read-only
// view of the kernel's own bytes instead, capacity-clipped so that an
// append by the holder cannot reach them, and valid until the next read
// or close of that fd: a socket's inbox writes after the lent bytes, or
// starts over in a spare array, and a file copies its array before an
// fwrite over lent bytes. An epoll_wait's Ready list is storage of the
// epoll instance, refilled by the next wait on it. File descriptors are
// never reused: the table is a slice indexed by fd that only grows, and
// an epoll set is a sorted slice of fds, so nothing on the per-call path
// touches a map.
package vos

import (
	"bytes"
	"sort"
	"time"

	"mvedsua/internal/obs"
	"mvedsua/internal/sim"
	"mvedsua/internal/sysabi"
)

// Kernel is the virtual OS. All state mutation happens from sim tasks, one
// at a time, so no locking is needed.
type Kernel struct {
	sched   *sim.Scheduler
	fds     []object // indexed by fd; nil = never opened, or closed (fds are never reused)
	nopen   int      // live entries of fds
	ports   map[int64]*listener
	fs      map[string]*file
	pids    map[int]int64 // task id -> logical pid
	nextPID int64

	// openFiles is the rest of the chunk open carves its records from. A
	// record is never reused: its fd is not, and close wipes it so that
	// the chunk keeps no file alive.
	openFiles []openFile

	// activity is woken whenever socket state changes; epoll waiters
	// re-poll on each wakeup.
	activity sim.WaitQueue

	// BaseCost, if non-nil, returns the virtual CPU time a syscall costs.
	// The benchmark harness installs the calibrated cost model here;
	// the default is free syscalls (pure functional testing).
	BaseCost func(sysabi.Call) time.Duration

	// Stats counts executed syscalls by op.
	Stats [sysabi.OpExit + 1]int

	// Rec, if non-nil, receives kernel-level observability (byte traffic
	// and the open-fd gauge). An apptest world attaches its recorder when
	// it is built, the benchmark only in its traced runs; without one a
	// syscall pays one nil check.
	Rec *obs.Recorder
}

// object is anything an fd can refer to.
type object interface{ isObject() }

// NewKernel returns an empty kernel bound to the scheduler.
func NewKernel(s *sim.Scheduler) *Kernel {
	return &Kernel{
		sched: s,
		fds:   make([]object, 3), // 0-2 reserved, as tradition demands
		ports: make(map[int64]*listener),
		fs:    make(map[string]*file),
		pids:  make(map[int]int64),
	}
}

// Scheduler returns the scheduler this kernel is bound to.
func (k *Kernel) Scheduler() *sim.Scheduler { return k.sched }

type listener struct {
	port    int64
	pending []*endpoint // server-side endpoints awaiting accept
	waiters sim.WaitQueue
	closed  bool
}

func (*listener) isObject() {}

// endpoint is one side of a connection. A connection is a pair of peered
// endpoints, each with its own inbox (full duplex).
type endpoint struct {
	inbox   inbox // data waiting to be read by this side
	readers sim.WaitQueue
	closed  bool // this side closed (no more reads/writes from here)
	peer    *endpoint

	// reqID is the request id of the most recent tagged write into this
	// side's inbox; the next read returns and clears it (observability
	// only — see sysabi.Call.ReqID).
	reqID uint64
}

func (*endpoint) isObject() {}

// inbox holds the bytes waiting to be read by one side of a connection,
// buf[r:]. A read that offers no buffer is lent a view of them (filled),
// and lent stays set until the side's next read. Writes only ever append
// after the unread bytes, so a lent view is never overwritten: a write
// that finds the inbox drained starts over at the front of buf unless
// buf's bytes are lent, in which case it starts over in spare, and the
// two arrays trade places; a write that needs room keeps only the unread
// bytes, moving them to the front in place unless that is where the lent
// ones are. In steady state nothing is allocated.
type inbox struct {
	buf   []byte
	r     int
	lent  bool
	spare []byte
}

// len returns the number of unread bytes.
func (b *inbox) len() int { return len(b.buf) - b.r }

// next consumes and returns the next n unread bytes.
func (b *inbox) next(n int) []byte {
	b.r += n
	return b.buf[b.r-n : b.r]
}

// write appends p to the unread bytes.
func (b *inbox) write(p []byte) {
	switch {
	case b.r == len(b.buf) && b.lent:
		b.buf, b.spare = b.spare[:0], b.buf
		b.r, b.lent = 0, false
	case b.r == len(b.buf):
		b.buf, b.r = b.buf[:0], 0
	case len(b.buf)+len(p) > cap(b.buf) && b.r > 0:
		unread := b.buf[b.r:]
		if b.lent {
			b.buf = make([]byte, 0, 2*(len(unread)+len(p)))
			b.lent = false
		}
		b.buf, b.r = append(b.buf[:0], unread...), 0
	}
	b.buf = append(b.buf, p...)
}

type file struct {
	data []byte
	// lent is set when a bufferless fread lends a view of data; an fwrite
	// over data's bytes then copies the array first.
	lent bool
}

// openFileChunk is how many records open carves from one allocation.
const openFileChunk = 64

// openFile is an fd referring to a file with a cursor.
type openFile struct {
	f      *file
	offset int
	flags  int64
}

func (*openFile) isObject() {}

type epoll struct {
	watched []int // ascending
	ready   []int // what the last epoll_wait returned as Ready, refilled by the next
}

func (*epoll) isObject() {}

func (k *Kernel) allocFD(o object) int {
	k.fds = append(k.fds, o)
	k.nopen++
	return len(k.fds) - 1
}

// object returns what fd refers to, nil for a closed, negative or
// never-allocated fd.
func (k *Kernel) object(fd int) object {
	if uint(fd) < uint(len(k.fds)) {
		return k.fds[fd]
	}
	return nil
}

// Invoke implements sysabi.Dispatcher: it executes the call natively.
func (k *Kernel) Invoke(t *sim.Task, c sysabi.Call) sysabi.Result {
	// Op comes from the caller: an unknown one is EINVAL below, uncounted.
	if uint(c.Op) < uint(len(k.Stats)) {
		k.Stats[c.Op]++
	}
	if k.BaseCost != nil {
		if d := k.BaseCost(c); d > 0 {
			t.Advance(d)
		}
	}
	res := k.dispatch(t, c)
	if k.Rec != nil {
		k.observe(c, res)
	}
	return res
}

// observe reports kernel-level traffic into the recorder (see the Rec
// field).
func (k *Kernel) observe(c sysabi.Call, res sysabi.Result) {
	switch c.Op {
	case sysabi.OpRead, sysabi.OpWrite:
		if res.OK() && res.Ret > 0 {
			k.Rec.Add(obs.CVOSNetBytes, res.Ret)
		}
	case sysabi.OpFRead, sysabi.OpFWrite:
		if res.OK() && res.Ret > 0 {
			k.Rec.Add(obs.CVOSFSBytes, res.Ret)
		}
	}
	k.Rec.SetGauge(obs.GVOSOpenFDs, int64(k.nopen))
}

func (k *Kernel) dispatch(t *sim.Task, c sysabi.Call) sysabi.Result {
	switch c.Op {
	case sysabi.OpSocket:
		return k.socket(c)
	case sysabi.OpAccept:
		return k.accept(t, c)
	case sysabi.OpConnect:
		return k.connect(c)
	case sysabi.OpRead:
		return k.read(t, c)
	case sysabi.OpWrite:
		return k.write(c)
	case sysabi.OpClose:
		return k.closeFD(c)
	case sysabi.OpOpen:
		return k.open(c)
	case sysabi.OpFRead:
		return k.fread(c)
	case sysabi.OpFWrite:
		return k.fwrite(c)
	case sysabi.OpStat:
		return k.stat(c)
	case sysabi.OpUnlink:
		return k.unlink(c)
	case sysabi.OpListDir:
		return k.listDir(c)
	case sysabi.OpEpollCreate:
		return sysabi.Result{Ret: int64(k.allocFD(&epoll{}))}
	case sysabi.OpEpollCtl:
		return k.epollCtl(c)
	case sysabi.OpEpollWait:
		return k.epollWait(t, c)
	case sysabi.OpClock:
		return sysabi.Result{Ret: int64(k.sched.Now())}
	case sysabi.OpGetPID:
		return k.getPID(t)
	case sysabi.OpExit:
		return sysabi.Result{Ret: c.Args[0]}
	default:
		return sysabi.Result{Err: sysabi.EINVAL}
	}
}

func (k *Kernel) socket(c sysabi.Call) sysabi.Result {
	port := c.Args[0]
	if _, taken := k.ports[port]; taken {
		return sysabi.Result{Err: sysabi.EINVAL}
	}
	l := &listener{port: port}
	k.ports[port] = l
	return sysabi.Result{Ret: int64(k.allocFD(l))}
}

func (k *Kernel) accept(t *sim.Task, c sysabi.Call) sysabi.Result {
	l, ok := k.object(c.FD).(*listener)
	if !ok {
		return sysabi.Result{Err: sysabi.EBADF}
	}
	for len(l.pending) == 0 {
		if l.closed {
			return sysabi.Result{Err: sysabi.EBADF}
		}
		t.Block(&l.waiters)
	}
	ep := l.pending[0]
	l.pending = l.pending[1:]
	return sysabi.Result{Ret: int64(k.allocFD(ep))}
}

func (k *Kernel) connect(c sysabi.Call) sysabi.Result {
	l, ok := k.ports[c.Args[0]]
	if !ok || l.closed {
		return sysabi.Result{Err: sysabi.ENOENT}
	}
	server := &endpoint{}
	client := &endpoint{}
	server.peer = client
	client.peer = server
	l.pending = append(l.pending, server)
	l.waiters.WakeOne(k.sched)
	k.activity.WakeAll(k.sched)
	return sysabi.Result{Ret: int64(k.allocFD(client))}
}

// filled returns a read's data, src, in the buffer the caller offered
// (see sysabi.Call.Buf) when that holds it. Otherwise it lends src, the
// kernel's own bytes, capacity-clipped so that the holder's append copies
// them, and reports that it did: the kernel then keeps those bytes intact
// until the next read or close of the fd.
func filled(c sysabi.Call, src []byte) (data []byte, lent bool) {
	if cap(c.Buf) >= len(src) {
		return append(c.Buf[:0], src...), false
	}
	return src[:len(src):len(src)], true
}

func (k *Kernel) read(t *sim.Task, c sysabi.Call) sysabi.Result {
	ep, ok := k.object(c.FD).(*endpoint)
	if !ok {
		return sysabi.Result{Err: sysabi.EBADF}
	}
	max := int(c.Args[0])
	if max <= 0 || len(c.Buf) != 0 {
		return sysabi.Result{Err: sysabi.EINVAL}
	}
	for ep.inbox.len() == 0 {
		if ep.closed {
			return sysabi.Result{Err: sysabi.ECONNRESET}
		}
		if ep.peer.closed {
			return sysabi.Result{Ret: 0} // EOF
		}
		t.Block(&ep.readers)
	}
	n := min(ep.inbox.len(), max)
	res := sysabi.Result{Ret: int64(n), ReqID: ep.reqID}
	res.Data, ep.inbox.lent = filled(c, ep.inbox.next(n))
	ep.reqID = 0
	return res
}

func (k *Kernel) write(c sysabi.Call) sysabi.Result {
	ep, ok := k.object(c.FD).(*endpoint)
	if !ok {
		return sysabi.Result{Err: sysabi.EBADF}
	}
	if ep.closed {
		return sysabi.Result{Err: sysabi.EBADF}
	}
	if ep.peer.closed {
		return sysabi.Result{Err: sysabi.EPIPE}
	}
	ep.peer.inbox.write(c.Buf)
	if c.ReqID != 0 {
		ep.peer.reqID = c.ReqID
	}
	ep.peer.readers.WakeAll(k.sched)
	k.activity.WakeAll(k.sched)
	return sysabi.Result{Ret: int64(len(c.Buf))}
}

func (k *Kernel) closeFD(c sysabi.Call) sysabi.Result {
	o := k.object(c.FD)
	if o == nil {
		return sysabi.Result{Err: sysabi.EBADF}
	}
	k.fds[c.FD] = nil
	k.nopen--
	switch v := o.(type) {
	case *endpoint:
		v.closed = true
		v.readers.WakeAll(k.sched)
		v.peer.readers.WakeAll(k.sched)
		k.activity.WakeAll(k.sched)
	case *listener:
		v.closed = true
		delete(k.ports, v.port)
		v.waiters.WakeAll(k.sched)
		k.activity.WakeAll(k.sched)
	case *openFile:
		*v = openFile{}
	case *epoll:
		// nothing extra
	}
	return sysabi.Result{}
}

func (k *Kernel) open(c sysabi.Call) sysabi.Result {
	f, ok := k.fs[c.Path]
	switch {
	case !ok && c.Args[0] == sysabi.OpenRead:
		return sysabi.Result{Err: sysabi.ENOENT}
	case !ok:
		f = &file{}
		k.fs[c.Path] = f
	case c.Args[0] == sysabi.OpenWrite:
		f.data, f.lent = nil, false // truncate: lent views keep the old array
	}
	if len(k.openFiles) == 0 {
		k.openFiles = make([]openFile, openFileChunk)
	}
	of := &k.openFiles[0]
	k.openFiles = k.openFiles[1:]
	of.f, of.flags = f, c.Args[0]
	if c.Args[0] == sysabi.OpenAppend {
		of.offset = len(f.data)
	}
	return sysabi.Result{Ret: int64(k.allocFD(of))}
}

func (k *Kernel) fread(c sysabi.Call) sysabi.Result {
	of, ok := k.object(c.FD).(*openFile)
	if !ok {
		return sysabi.Result{Err: sysabi.EBADF}
	}
	max := int(c.Args[0])
	if max <= 0 || len(c.Buf) != 0 {
		return sysabi.Result{Err: sysabi.EINVAL}
	}
	rem := len(of.f.data) - of.offset
	if rem <= 0 {
		return sysabi.Result{Ret: 0} // EOF
	}
	n := min(rem, max)
	end := of.offset + n
	data, lent := filled(c, of.f.data[of.offset:end])
	of.f.lent = of.f.lent || lent
	of.offset = end
	return sysabi.Result{Ret: int64(n), Data: data}
}

func (k *Kernel) fwrite(c sysabi.Call) sysabi.Result {
	of, ok := k.object(c.FD).(*openFile)
	if !ok {
		return sysabi.Result{Err: sysabi.EBADF}
	}
	if of.flags == sysabi.OpenRead {
		return sysabi.Result{Err: sysabi.EINVAL}
	}
	// Write at cursor, into a copy of the array if the write overwrites
	// bytes a bufferless fread may have lent, extending by append: lent
	// views are capacity-clipped, so nothing past len is lent.
	end := of.offset + len(c.Buf)
	if of.f.lent && of.offset < len(of.f.data) {
		of.f.data, of.f.lent = bytes.Clone(of.f.data), false
	}
	if end > len(of.f.data) {
		of.f.data = append(of.f.data, make([]byte, end-len(of.f.data))...)
	}
	copy(of.f.data[of.offset:], c.Buf)
	of.offset = end
	return sysabi.Result{Ret: int64(len(c.Buf))}
}

func (k *Kernel) stat(c sysabi.Call) sysabi.Result {
	f, ok := k.fs[c.Path]
	if !ok {
		return sysabi.Result{Err: sysabi.ENOENT}
	}
	return sysabi.Result{Ret: int64(len(f.data))}
}

func (k *Kernel) unlink(c sysabi.Call) sysabi.Result {
	if _, ok := k.fs[c.Path]; !ok {
		return sysabi.Result{Err: sysabi.ENOENT}
	}
	delete(k.fs, c.Path)
	return sysabi.Result{}
}

func (k *Kernel) listDir(c sysabi.Call) sysabi.Result {
	prefix := c.Path
	if prefix != "" && prefix[len(prefix)-1] != '/' {
		prefix += "/"
	}
	var names []string
	for name := range k.fs { // maporder: ok — names are sorted below
		if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
			names = append(names, name[len(prefix):])
		}
	}
	sort.Strings(names)
	var out bytes.Buffer
	for _, n := range names {
		out.WriteString(n)
		out.WriteByte('\n')
	}
	return sysabi.Result{Ret: int64(len(names)), Data: out.Bytes()}
}

func (k *Kernel) epollCtl(c sysabi.Call) sysabi.Result {
	ep, ok := k.object(c.FD).(*epoll)
	if !ok {
		return sysabi.Result{Err: sysabi.EBADF}
	}
	target := int(c.Args[0])
	i := sort.SearchInts(ep.watched, target)
	found := i < len(ep.watched) && ep.watched[i] == target
	switch {
	case c.Args[1] == 1 && k.object(target) == nil:
		return sysabi.Result{Err: sysabi.EBADF}
	case c.Args[1] == 1 && !found:
		ep.watched = append(ep.watched, 0)
		copy(ep.watched[i+1:], ep.watched[i:])
		ep.watched[i] = target
	case c.Args[1] != 1 && found:
		ep.watched = append(ep.watched[:i], ep.watched[i+1:]...)
	}
	return sysabi.Result{}
}

// ready reports whether fd has a pending readable event.
func (k *Kernel) ready(fd int) bool {
	switch v := k.object(fd).(type) {
	case *endpoint:
		return v.inbox.len() > 0 || v.peer.closed || v.closed
	case *listener:
		return len(v.pending) > 0
	case *openFile:
		return true
	default:
		return false
	}
}

func (k *Kernel) epollWait(t *sim.Task, c sysabi.Call) sysabi.Result {
	ep, ok := k.object(c.FD).(*epoll)
	if !ok {
		return sysabi.Result{Err: sysabi.EBADF}
	}
	max := int(c.Args[0])
	if max <= 0 {
		max = 64
	}
	// Args[1] is an optional timeout in virtual nanoseconds; 0 blocks
	// indefinitely, like epoll_wait(2) with timeout -1.
	timeout := time.Duration(c.Args[1])
	deadline := k.sched.Now() + timeout
	for {
		// One ascending walk drops the fds closed while watched and
		// collects Ready — the first max ready ones, in fd order — into the
		// instance's own storage (see sysabi.Result.Ready).
		live, fds := ep.watched[:0], ep.ready[:0]
		for _, fd := range ep.watched {
			if k.fds[fd] == nil {
				continue
			}
			live = append(live, fd)
			if len(fds) < max && k.ready(fd) {
				fds = append(fds, fd)
			}
		}
		ep.watched, ep.ready = live, fds
		if len(fds) > 0 {
			return sysabi.Result{Ret: int64(len(fds)), Ready: fds}
		}
		if timeout > 0 {
			remaining := deadline - k.sched.Now()
			if remaining <= 0 {
				return sysabi.Result{Ret: 0} // timed out, nothing ready
			}
			t.BlockTimeout(&k.activity, remaining)
		} else {
			t.Block(&k.activity)
		}
	}
}

func (k *Kernel) getPID(t *sim.Task) sysabi.Result {
	if pid, ok := k.pids[t.ID()]; ok {
		return sysabi.Result{Ret: pid}
	}
	k.nextPID++
	k.pids[t.ID()] = k.nextPID
	return sysabi.Result{Ret: k.nextPID}
}

// WriteFile creates or replaces a virtual file, for test setup.
func (k *Kernel) WriteFile(path string, data []byte) {
	k.fs[path] = &file{data: append([]byte(nil), data...)}
}

// OpenFDs returns the number of live file descriptors, for leak tests.
func (k *Kernel) OpenFDs() int { return k.nopen }
