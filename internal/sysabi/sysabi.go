// Package sysabi defines the virtual system-call ABI shared by the virtual
// OS (internal/vos), the MVE monitor (internal/mve), and the applications.
//
// It plays the role the Linux syscall ABI plays in the paper: the single
// boundary through which every externally visible effect of a program
// flows, and therefore the level at which multi-version execution records,
// replays, compares, and rewrites behaviour.
package sysabi

import (
	"bytes"
	"fmt"

	"mvedsua/internal/sim"
)

// Op identifies a virtual system call.
type Op int

// The virtual syscall set. It covers what the paper's servers need:
// stream sockets, files, readiness polling, time, and process control.
const (
	OpInvalid Op = iota

	// Sockets.
	OpSocket  // create a listening socket endpoint; Args[0] = port
	OpAccept  // FD = listening fd; returns new connection fd
	OpRead    // FD, Args[0] = max bytes; returns data
	OpWrite   // FD, Buf = payload
	OpClose   // FD
	OpConnect // client side: Args[0] = port; returns connection fd

	// Files.
	OpOpen    // Path, Args[0] = flags (OpenRead/OpenWrite/OpenAppend)
	OpFRead   // FD, Args[0] = max bytes
	OpFWrite  // FD, Buf
	OpStat    // Path; returns size in Ret
	OpUnlink  // Path
	OpListDir // Path; returns newline-joined names

	// Event polling (epoll-like).
	OpEpollCreate // returns epoll fd
	OpEpollCtl    // FD = epoll fd, Args[0] = watched fd, Args[1] = add(1)/del(0)
	OpEpollWait   // FD = epoll fd, Args[0] = max events; returns ready fds

	// Misc.
	OpClock  // returns virtual nanoseconds in Ret
	OpGetPID // returns logical pid
	OpExit   // Args[0] = status
)

var opNames = map[Op]string{
	OpInvalid:     "invalid",
	OpSocket:      "socket",
	OpAccept:      "accept",
	OpRead:        "read",
	OpWrite:       "write",
	OpClose:       "close",
	OpConnect:     "connect",
	OpOpen:        "open",
	OpFRead:       "fread",
	OpFWrite:      "fwrite",
	OpStat:        "stat",
	OpUnlink:      "unlink",
	OpListDir:     "listdir",
	OpEpollCreate: "epoll_create",
	OpEpollCtl:    "epoll_ctl",
	OpEpollWait:   "epoll_wait",
	OpClock:       "clock",
	OpGetPID:      "getpid",
	OpExit:        "exit",
}

// String returns the syscall's conventional name.
func (o Op) String() string {
	if n, ok := opNames[o]; ok {
		return n
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Open flags for OpOpen.
const (
	OpenRead   = 0
	OpenWrite  = 1
	OpenAppend = 2
)

// Errno is a virtual error number. Zero means success.
type Errno int

// Virtual errnos, mirroring the POSIX names the servers care about.
const (
	OK         Errno = 0
	EBADF      Errno = 9
	EAGAIN     Errno = 11
	ENOMEM     Errno = 12
	EFAULT     Errno = 14
	EINVAL     Errno = 22
	ENOENT     Errno = 2
	EPIPE      Errno = 32
	ECONNRESET Errno = 104
	EKILLED    Errno = 513 // task killed while blocked in a syscall (internal)
)

// Error implements the error interface for non-zero errnos.
func (e Errno) Error() string {
	switch e {
	case OK:
		return "ok"
	case EBADF:
		return "bad file descriptor"
	case EAGAIN:
		return "resource temporarily unavailable"
	case ENOMEM:
		return "out of memory"
	case EFAULT:
		return "bad address"
	case EINVAL:
		return "invalid argument"
	case ENOENT:
		return "no such file or directory"
	case EPIPE:
		return "broken pipe"
	case ECONNRESET:
		return "connection reset by peer"
	case EKILLED:
		return "task killed"
	default:
		return fmt.Sprintf("errno %d", int(e))
	}
}

// Call is one virtual system call as issued by an application.
type Call struct {
	Op Op
	FD int
	// Buf is the payload of a write. A read or fread may instead offer
	// its destination here as buf[:0]: capacity is the offer, and length
	// must stay 0 — the ring copies, the cost model charges and Equal
	// compares len(Buf) bytes, and the kernel answers EINVAL otherwise.
	// Whoever executes the call (the kernel; a follower's monitor, from
	// the recorded bytes) fills the offer and returns it as Result.Data.
	// With no offer, or one too small, the kernel lends Result.Data
	// instead: a read-only view of its own bytes, capacity-clipped so
	// that an append copies, and valid until the next read or close of
	// the fd by any task — so one thread reads each fd, and a caller that
	// keeps the data past that copies it. (A follower's monitor hands
	// over the ring's copy, which the follower owns.)
	Buf  []byte
	Args [2]int64 // numeric arguments (port, max bytes, flags, ...)
	Path string   // for file ops

	// TID is the logical thread id of the issuing application thread
	// (0 for the main thread). Logical ids are stable across versions —
	// they follow thread spawn order — which lets the MVE monitor match
	// a follower thread against the corresponding leader thread's
	// events, the way Varan matches per-thread event streams.
	TID int

	// ReqID tags the call with a client request id for latency
	// attribution (observability only). A tagged client write carries it
	// into the kernel, which threads it to the server's read result; the
	// MVE leader then stamps it onto the recorded response event so the
	// follower's validation path can close the request's timeline. Equal
	// deliberately ignores it — follower-issued calls never carry request
	// ids, and observation must not affect divergence checking.
	ReqID uint64
}

// Result is the kernel's (or, for a follower, the ring buffer's) answer.
type Result struct {
	Ret  int64  // primary return value: fd, byte count, size, time
	Data []byte // returned data for reads, accept peer info, etc.
	// Ready lists an epoll_wait's ready fds. It is not the caller's: it
	// is valid until the next epoll_wait on the same epoll fd, which
	// refills the same storage (the kernel's for the epoll instance; a
	// follower's monitor's for the issuing thread). So one thread drives
	// each epoll instance, as every shipped app does, and a caller that
	// keeps the list past its next wait copies it.
	Ready []int
	Err   Errno

	// ReqID carries the request id of the inbound payload a read
	// returned (observability only; see Call.ReqID).
	ReqID uint64
}

// OK reports whether the result is a success.
func (r Result) OK() bool { return r.Err == OK }

// String formats a call for traces and divergence reports.
func (c Call) String() string {
	switch c.Op {
	case OpRead, OpFRead:
		return fmt.Sprintf("%s(fd=%d, n=%d)", c.Op, c.FD, c.Args[0])
	case OpWrite, OpFWrite:
		return fmt.Sprintf("%s(fd=%d, %q)", c.Op, c.FD, truncate(c.Buf, 48))
	case OpOpen, OpStat, OpUnlink, OpListDir:
		return fmt.Sprintf("%s(%q)", c.Op, c.Path)
	case OpSocket, OpConnect:
		return fmt.Sprintf("%s(port=%d)", c.Op, c.Args[0])
	case OpEpollCtl:
		return fmt.Sprintf("%s(efd=%d, fd=%d, add=%d)", c.Op, c.FD, c.Args[0], c.Args[1])
	case OpEpollWait:
		return fmt.Sprintf("%s(efd=%d)", c.Op, c.FD)
	case OpAccept, OpClose:
		return fmt.Sprintf("%s(fd=%d)", c.Op, c.FD)
	default:
		return fmt.Sprintf("%s()", c.Op)
	}
}

func truncate(b []byte, n int) string {
	if len(b) <= n {
		return string(b)
	}
	return string(b[:n]) + "..."
}

// Equal reports whether two calls are observably identical: same op, same
// fd, same numeric args, same payload, same path, same logical thread.
// This is the MVE monitor's ground definition of "the follower did the
// same thing as the leader".
func (c Call) Equal(o Call) bool {
	return c.Op == o.Op &&
		c.FD == o.FD &&
		c.Args == o.Args &&
		c.Path == o.Path &&
		c.TID == o.TID &&
		bytes.Equal(c.Buf, o.Buf)
}

// HasOutput reports whether the call carries externally visible output that
// must be byte-compared between versions (as opposed to input calls, where
// the follower receives the leader's recorded data).
func (c Call) HasOutput() bool {
	return c.Op == OpWrite || c.Op == OpFWrite
}

// IsInput reports whether the call consumes external input, i.e. the
// follower must be fed the leader's recorded result data.
func (c Call) IsInput() bool {
	switch c.Op {
	case OpRead, OpFRead, OpAccept, OpEpollWait, OpClock, OpListDir, OpStat:
		return true
	}
	return false
}

// Clone returns a deep copy of the call (payloads are not shared).
func (c Call) Clone() Call {
	out := c
	if c.Buf != nil {
		out.Buf = append([]byte(nil), c.Buf...)
	}
	return out
}

// Clone returns a deep copy of the result.
func (r Result) Clone() Result {
	out := r
	if r.Data != nil {
		out.Data = append([]byte(nil), r.Data...)
	}
	if r.Ready != nil {
		out.Ready = append([]int(nil), r.Ready...)
	}
	return out
}

// Event pairs a call with its result; it is the unit stored in the MVE ring
// buffer and consumed by followers.
type Event struct {
	Seq    uint64
	Call   Call
	Result Result
}

// String formats the event for traces.
func (e Event) String() string {
	if e.Result.Err != OK {
		return fmt.Sprintf("#%d %s = %v", e.Seq, e.Call, e.Result.Err)
	}
	return fmt.Sprintf("#%d %s = %d", e.Seq, e.Call, e.Result.Ret)
}

// Dispatcher executes virtual system calls. The virtual OS implements it;
// the MVE monitor wraps it to intercept, record, or replay.
type Dispatcher interface {
	// Invoke executes the call on behalf of the given task and returns its
	// result. Invoke may block the task (cooperatively), e.g. on reads
	// from an empty socket or on a full MVE ring buffer.
	Invoke(t *sim.Task, call Call) Result
}
