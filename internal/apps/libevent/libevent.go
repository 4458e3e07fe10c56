// Package libevent implements the event-loop substrate Memcached is
// built on (§5.3 of the paper). Applications register file descriptors
// with handler classes; the loop epoll-waits and dispatches callbacks.
//
// Crucially for MVEDSUA, the loop keeps user-space state: it dispatches
// ready descriptors in a round-robin fashion, remembering where it was
// after each invocation. A freshly updated follower loses this memory
// (its LibEvent is rebuilt by control migration), so the leader must
// reset its own state when an update is aborted on it — otherwise the
// two processes handle simultaneous events in different orders and MVE
// reports a spurious divergence. That reset is exactly the callback the
// paper's Memcached adaptation adds (§5.3, §6.2 "timing error").
package libevent

import (
	"fmt"

	"mvedsua/internal/dsu"
	"mvedsua/internal/sysabi"
)

// HandlerClass identifies what kind of object an fd is, so handler
// functions can be re-bound after forks and updates (closures cannot be
// deep-copied; classes can).
type HandlerClass int

// Handler classes used by the servers.
const (
	HandlerListener HandlerClass = iota
	HandlerConn
)

// DispatchFunc is the application's event callback.
type DispatchFunc func(env *dsu.Env, class HandlerClass, fd int)

// Base is one event loop instance (one per thread in Memcached).
type Base struct {
	epollFD  int
	handlers map[int]HandlerClass

	// rrOffset is the round-robin dispatch memory described above.
	rrOffset int

	// corrupted simulates the §6.2 state-transformation bug: an update
	// freed memory LibEvent still references; the crash manifests only
	// under enough load (several registered connections).
	corrupted bool

	dispatch DispatchFunc
}

// NewBase returns an uninitialized Base; call Init before use.
func NewBase() *Base {
	return &Base{handlers: make(map[int]HandlerClass)}
}

// Init creates the epoll descriptor. Call once at cold start.
func (b *Base) Init(env *dsu.Env) {
	r := env.Sys(sysabi.Call{Op: sysabi.OpEpollCreate})
	if !r.OK() {
		panic(fmt.Sprintf("libevent: epoll_create: %v", r.Err))
	}
	b.epollFD = int(r.Ret)
}

// Bind installs the dispatch callback. Must be called after construction
// and again after forks or updates (callbacks do not survive copies).
func (b *Base) Bind(fn DispatchFunc) { b.dispatch = fn }

// Register watches fd and associates the handler class.
func (b *Base) Register(env *dsu.Env, fd int, class HandlerClass) {
	b.handlers[fd] = class
	env.Sys(sysabi.Call{Op: sysabi.OpEpollCtl, FD: b.epollFD, Args: [2]int64{int64(fd), 1}})
}

// Unregister stops watching fd.
func (b *Base) Unregister(env *dsu.Env, fd int) {
	delete(b.handlers, fd)
	env.Sys(sysabi.Call{Op: sysabi.OpEpollCtl, FD: b.epollFD, Args: [2]int64{int64(fd), 0}})
}

// Clone deep-copies the loop state for a process fork. The dispatch
// callback is not copied; the new owner must Bind again. The epoll fd is
// shared, as it would be across fork(2). Cloning a nil (not yet
// initialized) base yields nil, so cold servers can be forked.
func (b *Base) Clone() *Base {
	if b == nil {
		return nil
	}
	out := &Base{
		epollFD:   b.epollFD,
		handlers:  make(map[int]HandlerClass, len(b.handlers)),
		rrOffset:  b.rrOffset,
		corrupted: b.corrupted,
	}
	for fd, c := range b.handlers { // maporder: ok — map-to-map clone, order unobservable
		out.handlers[fd] = c
	}
	return out
}

// Rebuild returns the Base as reconstructed by a dynamic update's
// control migration: same registrations and epoll fd, but the round-robin
// memory is lost — the updated process starts from a fresh dispatch
// position (§5.3).
func (b *Base) Rebuild() *Base {
	out := b.Clone()
	if out != nil {
		out.rrOffset = 0
	}
	return out
}

// Reset clears the round-robin memory. This is the §5.3 abort callback:
// run on the leader after an aborted update so its dispatch order matches
// the freshly rebuilt follower's.
func (b *Base) Reset() { b.rrOffset = 0 }

// Corrupt marks the loop as referencing freed memory (fault injection
// for the §6.2 state-transformation-error experiment).
func (b *Base) Corrupt() { b.corrupted = true }

// RROffset exposes the dispatch memory, for tests.
func (b *Base) RROffset() int { return b.rrOffset }

// LoopOnce waits for events and dispatches each ready descriptor's
// handler, honouring the round-robin memory. It reports false when the
// wait failed (teardown).
func (b *Base) LoopOnce(env *dsu.Env) bool {
	r := env.Sys(sysabi.Call{Op: sysabi.OpEpollWait, FD: b.epollFD, Args: [2]int64{64, 0}})
	if !r.OK() {
		return false
	}
	ready := r.Ready
	if len(ready) == 0 {
		return true
	}
	if b.corrupted && len(b.handlers) >= 3 {
		// The freed allocation was recycled; dereferencing it now
		// crashes, as the paper observed "only when a sufficiently
		// large number of clients were connected".
		panic("libevent: use of freed event state (state-transformation bug)")
	}
	// Dispatch starting at the remembered position.
	start := b.rrOffset % len(ready)
	for i := 0; i < len(ready); i++ {
		fd := ready[(start+i)%len(ready)]
		class, ok := b.handlers[fd]
		if !ok {
			continue
		}
		b.rrOffset++
		if b.dispatch != nil {
			b.dispatch(env, class, fd)
		}
	}
	return true
}
