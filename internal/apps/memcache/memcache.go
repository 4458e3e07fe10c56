// Package memcache implements the reproduction's Memcached counterpart
// (§5.3 of the paper): a multi-threaded, in-memory cache built on the
// LibEvent-like event loop (internal/apps/libevent), speaking the
// memcached text protocol.
//
// Architecture, following memcached 1.2.x: the main thread accepts
// connections and assigns them round-robin to worker threads; each
// worker runs its own event loop over its own epoll descriptor. The
// version lineage is 1.2.2 → 1.2.4. As in the paper, no version changes
// the syscall sequence or the command set, so updates need no DSL rules;
// the MVEDSUA adaptation is instead the LibEvent reset-on-abort callback
// and epoll_wait-as-update-point (§5.3, about 100 adapted lines there).
//
// Version-visible quirk used by the fault experiments: 1.2.2 crashes on
// oversized keys (>250 bytes); 1.2.3 fixed it with a CLIENT_ERROR.
package memcache

import (
	"fmt"
	"strconv"
	"time"

	"mvedsua/internal/apps/libevent"
	"mvedsua/internal/dsu"
	"mvedsua/internal/proto"
	"mvedsua/internal/sysabi"
)

// Port is the server's listening port.
const Port = 11211

// MaxKeyLen is the protocol's key length limit.
const MaxKeyLen = 250

// Versions in lineage order.
var Versions = []string{"1.2.2", "1.2.3", "1.2.4"}

// Spec captures version behaviour.
type Spec struct {
	Version string
	// Workers is the number of worker threads (memcached's -t), default 4.
	Workers int
	// OversizedKeyCrash: 1.2.2 mishandles keys over MaxKeyLen and
	// crashes; later versions reply CLIENT_ERROR.
	OversizedKeyCrash bool
}

// SpecFor builds the Spec for a version.
func SpecFor(version string, workers int) Spec {
	if workers <= 0 {
		workers = 4
	}
	s := Spec{Version: version, Workers: workers}
	switch version {
	case "1.2.2":
		s.OversizedKeyCrash = true
	case "1.2.3", "1.2.4":
	default:
		panic("memcache: unknown version " + version)
	}
	return s
}

type item struct {
	flags int
	data  string
}

type mcConn struct {
	in *proto.LineBuffer
	// pending is the header of a storage command awaiting its data line;
	// its verb is empty while none is.
	pending setHeader
}

type setHeader struct {
	verb  string // one of storageVerbs, or invalidVerb for a malformed header
	key   string
	flags int
	bytes int
}

// storageVerbs spell the commands whose data block follows on the next
// line: a pending header refers to one of them instead of copying its
// verb out of the command line.
var storageVerbs = [...]string{"set", "add", "replace", "append", "prepend"}

// invalidVerb marks a header whose data line is swallowed and answered
// with an error.
const invalidVerb = "__invalid__"

func (c *mcConn) clone() *mcConn { return &mcConn{in: c.in.Clone(), pending: c.pending} }

// reply is one write of a command's answer: fixed bytes, or — with key
// set — a get hit's VALUE block, encoded into the worker's scratch just
// before it is written, from the item as the lookup found it. The key is
// a view of the command line.
type reply struct {
	fixed []byte
	key   []byte
	it    item
}

type worker struct {
	base  *libevent.Base
	conns map[int]*mcConn

	// Per-request scratch: the buffer offered to read, the command's
	// tokens (views of its line), its replies and the VALUE block being
	// written. It belongs to this worker's thread — a sibling may be
	// parked mid-request — and clone copies none of it.
	rbuf    [4096]byte
	args    [][]byte
	replies []reply
	value   []byte
}

// say makes b the command's one reply.
func (w *worker) say(b []byte) []reply {
	w.replies = append(w.replies[:0], reply{fixed: b})
	return w.replies
}

func (w *worker) clone() *worker {
	out := &worker{base: w.base.Clone(), conns: make(map[int]*mcConn, len(w.conns))}
	for fd, c := range w.conns { // maporder: ok — map-to-map clone, order unobservable
		out.conns[fd] = c.clone()
	}
	return out
}

// Server is one version instance. It implements dsu.App.
type Server struct {
	spec Spec

	listenFD   int
	mainBase   *libevent.Base
	workers    []*worker
	nextWorker int

	db map[string]item

	// stats counters (identical semantics across versions).
	cmdGet, cmdSet, getHits, getMisses int64

	// Ops counts executed commands, for benchmarks.
	Ops int64
	// CmdCPU is the user-space CPU charged per command (benchmark cost
	// model; zero in functional tests).
	CmdCPU time.Duration
}

// New builds a cold server.
func New(spec Spec) *Server {
	return &Server{spec: spec, db: make(map[string]item)}
}

// Version implements dsu.App.
func (s *Server) Version() string { return s.spec.Version }

// WorkerBases returns each worker's event loop.
func (s *Server) WorkerBases() []*libevent.Base {
	out := make([]*libevent.Base, len(s.workers))
	for i, w := range s.workers {
		out[i] = w.base
	}
	return out
}

// Fork implements dsu.App with a deep copy (process-fork substitute).
func (s *Server) Fork() dsu.App {
	out := &Server{
		spec:       s.spec,
		listenFD:   s.listenFD,
		mainBase:   s.mainBase.Clone(),
		workers:    make([]*worker, len(s.workers)),
		nextWorker: s.nextWorker,
		db:         make(map[string]item, len(s.db)),
		cmdGet:     s.cmdGet,
		cmdSet:     s.cmdSet,
		getHits:    s.getHits,
		getMisses:  s.getMisses,
		Ops:        s.Ops,
		CmdCPU:     s.CmdCPU,
	}
	for i, w := range s.workers {
		out.workers[i] = w.clone()
	}
	for k, v := range s.db { // maporder: ok — map-to-map clone, order unobservable
		out.db[k] = v
	}
	return out
}

// ResetLibEvent clears every event loop's round-robin memory. Installed
// as the DSU abort callback (§5.3): after an aborted update the leader's
// dispatch position must match the freshly rebuilt follower's.
func (s *Server) ResetLibEvent() {
	s.mainBase.Reset()
	for _, w := range s.workers {
		w.base.Reset()
	}
}

// AbortReset is the dsu.Config.OnAbort adapter for Server.
func AbortReset(app dsu.App) {
	if s, ok := app.(*Server); ok {
		s.ResetLibEvent()
	}
}

// Main implements dsu.App.
func (s *Server) Main(env *dsu.Env) {
	if env.Updating() {
		// Control migration: LibEvent is reconstructed in the new
		// version. Registrations and epoll fds survive (they live in
		// the kernel); the round-robin memory does not (§5.3).
		s.mainBase = s.mainBase.Rebuild()
		for _, w := range s.workers {
			w.base = w.base.Rebuild()
		}
	} else {
		r := env.Sys(sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{Port, 0}})
		if !r.OK() {
			panic(fmt.Sprintf("memcache: bind: %v", r.Err))
		}
		s.listenFD = int(r.Ret)
		s.mainBase = libevent.NewBase()
		s.mainBase.Init(env)
		s.mainBase.Register(env, s.listenFD, libevent.HandlerListener)
		s.workers = make([]*worker, s.spec.Workers)
		for i := range s.workers {
			w := &worker{base: libevent.NewBase(), conns: make(map[int]*mcConn)}
			w.base.Init(env)
			s.workers[i] = w
		}
	}
	s.mainBase.Bind(func(e *dsu.Env, class libevent.HandlerClass, fd int) {
		s.acceptConn(e)
	})
	for i, w := range s.workers {
		i, w := i, w
		w.base.Bind(func(e *dsu.Env, class libevent.HandlerClass, fd int) {
			s.handleConn(e, w, fd)
		})
		env.Go(fmt.Sprintf("worker%d", i), func(we *dsu.Env) {
			for !we.Exiting() {
				if we.UpdatePoint("worker_loop") == dsu.Exit {
					return
				}
				if !w.base.LoopOnce(we) {
					return
				}
			}
		})
	}
	for !env.Exiting() {
		if env.UpdatePoint("main_loop") == dsu.Exit {
			return
		}
		if !s.mainBase.LoopOnce(env) {
			return
		}
	}
}

// acceptConn accepts one connection and hands it to the next worker.
func (s *Server) acceptConn(env *dsu.Env) {
	r := env.Sys(sysabi.Call{Op: sysabi.OpAccept, FD: s.listenFD})
	if !r.OK() {
		return
	}
	fd := int(r.Ret)
	w := s.workers[s.nextWorker%len(s.workers)]
	s.nextWorker++
	w.conns[fd] = &mcConn{in: &proto.LineBuffer{}}
	w.base.Register(env, fd, libevent.HandlerConn)
}

// handleConn services readable data on a worker-owned connection.
func (s *Server) handleConn(env *dsu.Env, w *worker, fd int) {
	conn, ok := w.conns[fd]
	if !ok {
		return
	}
	r := env.Sys(sysabi.Call{Op: sysabi.OpRead, FD: fd, Buf: w.rbuf[:0], Args: [2]int64{4096, 0}})
	if !r.OK() || r.Ret == 0 {
		w.base.Unregister(env, fd)
		env.Sys(sysabi.Call{Op: sysabi.OpClose, FD: fd})
		delete(w.conns, fd)
		return
	}
	conn.in.Feed(r.Data)
	for {
		line, ok := conn.in.Next()
		if !ok {
			break
		}
		for _, rep := range s.executeLine(env, w, conn, line) {
			b := rep.fixed
			if rep.key != nil {
				w.value = proto.AppendMcValue(w.value[:0], rep.key, rep.it.flags, rep.it.data)
				b = w.value
			}
			env.Sys(sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: b})
		}
	}
}

// Replies that never vary are encoded once; nobody writes to them.
var (
	replyEnd        = proto.McEnd()
	replyStored     = proto.McStored()
	replyNotStored  = proto.McNotStored()
	replyDeleted    = proto.McDeleted()
	replyNotFound   = proto.McNotFound()
	replyError      = proto.McError()
	replyOK         = []byte("OK\r\n")
	replyBadFormat  = proto.McClientError("bad command line format")
	replyBadChunk   = proto.McClientError("bad data chunk")
	replyBadDelta   = proto.McClientError("invalid numeric delta argument")
	replyNonNumeric = proto.McClientError("cannot increment or decrement non-numeric value")
)

// executeLine consumes one protocol line and returns its replies, in the
// worker's scratch: they are valid until its next line. Storage commands
// span two lines (header + data block). The tokens are views of line: a
// key is looked up without a copy, and only what a store keeps — the
// key and the data — is copied.
func (s *Server) executeLine(env *dsu.Env, w *worker, conn *mcConn, line []byte) []reply {
	if h := conn.pending; h.verb != "" {
		conn.pending = setHeader{}
		return w.say(s.store(h, line))
	}
	w.args = proto.AppendFields(w.args[:0], line)
	args := w.args
	if len(args) == 0 {
		return w.say(replyError)
	}
	s.Ops++
	if s.CmdCPU > 0 {
		env.Task().Advance(s.CmdCPU)
	}
	switch string(args[0]) {
	case "get", "gets":
		if len(args) < 2 {
			return w.say(replyError)
		}
		w.replies = w.replies[:0]
		for _, key := range args[1:] {
			if rep, bad := s.checkKey(key); bad {
				return w.say(rep)
			}
			s.cmdGet++
			if it, ok := s.db[string(key)]; ok {
				s.getHits++
				w.replies = append(w.replies, reply{key: key, it: it})
			} else {
				s.getMisses++
			}
		}
		w.replies = append(w.replies, reply{fixed: replyEnd})
		return w.replies
	case "set", "add", "replace", "append", "prepend":
		if len(args) != 5 {
			return w.say(replyError)
		}
		if rep, bad := s.checkKey(args[1]); bad {
			return w.say(rep)
		}
		flags, err1 := strconv.Atoi(string(args[2]))
		bytes, err2 := strconv.Atoi(string(args[4]))
		if err1 != nil || err2 != nil || bytes < 0 {
			// Swallow the upcoming data line, then report the error.
			conn.pending = setHeader{verb: invalidVerb}
			return nil
		}
		conn.pending = setHeader{verb: storageVerb(args[0]), key: string(args[1]), flags: flags, bytes: bytes}
		return nil
	case "delete":
		if len(args) < 2 {
			return w.say(replyError)
		}
		if rep, bad := s.checkKey(args[1]); bad {
			return w.say(rep)
		}
		if _, ok := s.db[string(args[1])]; ok {
			delete(s.db, string(args[1]))
			return w.say(replyDeleted)
		}
		return w.say(replyNotFound)
	case "incr", "decr":
		if len(args) != 3 {
			return w.say(replyError)
		}
		return w.say(s.incrDecr(args[0], args[1], args[2]))
	case "stats":
		return s.statsReply(env, w)
	case "version":
		return w.say([]byte("VERSION " + s.spec.Version + "\r\n"))
	case "flush_all":
		s.db = make(map[string]item)
		return w.say(replyOK)
	case "verbosity":
		return w.say(replyOK)
	default:
		return w.say(replyError)
	}
}

// storageVerb returns the storageVerbs entry b spells.
func storageVerb(b []byte) string {
	for _, v := range storageVerbs {
		if string(b) == v {
			return v
		}
	}
	return invalidVerb
}

// checkKey enforces the protocol key limit; 1.2.2 crashes on violation.
func (s *Server) checkKey(key []byte) ([]byte, bool) {
	if len(key) <= MaxKeyLen {
		return nil, false
	}
	if s.spec.OversizedKeyCrash {
		panic(fmt.Sprintf("memcached %s: buffer overflow on %d-byte key", s.spec.Version, len(key)))
	}
	return replyBadFormat, true
}

func (s *Server) store(h setHeader, data []byte) []byte {
	if h.verb == invalidVerb {
		return replyBadFormat
	}
	if len(data) != h.bytes {
		return replyBadChunk
	}
	_, exists := s.db[h.key]
	switch h.verb {
	case "add":
		if exists {
			return replyNotStored
		}
	case "replace":
		if !exists {
			return replyNotStored
		}
	case "append":
		if !exists {
			return replyNotStored
		}
		it := s.db[h.key]
		it.data += string(data)
		s.db[h.key] = it
		s.cmdSet++
		return replyStored
	case "prepend":
		if !exists {
			return replyNotStored
		}
		it := s.db[h.key]
		it.data = string(data) + it.data
		s.db[h.key] = it
		s.cmdSet++
		return replyStored
	}
	s.db[h.key] = item{flags: h.flags, data: string(data)}
	s.cmdSet++
	return replyStored
}

func (s *Server) incrDecr(verb, key, delta []byte) []byte {
	d, err := strconv.ParseUint(string(delta), 10, 64)
	if err != nil {
		return replyBadDelta
	}
	it, ok := s.db[string(key)]
	if !ok {
		return replyNotFound
	}
	cur, err := strconv.ParseUint(it.data, 10, 64)
	if err != nil {
		return replyNonNumeric
	}
	if string(verb) == "incr" {
		cur += d
	} else if d > cur {
		cur = 0
	} else {
		cur -= d
	}
	it.data = strconv.FormatUint(cur, 10)
	s.db[string(key)] = it
	return []byte(it.data + "\r\n")
}

func (s *Server) statsReply(env *dsu.Env, w *worker) []reply {
	// Uptime goes through the clock syscall, so leader and follower see
	// the same value via MVE replay.
	r := env.Sys(sysabi.Call{Op: sysabi.OpClock})
	uptime := r.Ret / 1e9
	lines := []string{
		fmt.Sprintf("STAT uptime %d", uptime),
		fmt.Sprintf("STAT curr_items %d", len(s.db)),
		fmt.Sprintf("STAT cmd_get %d", s.cmdGet),
		fmt.Sprintf("STAT cmd_set %d", s.cmdSet),
		fmt.Sprintf("STAT get_hits %d", s.getHits),
		fmt.Sprintf("STAT get_misses %d", s.getMisses),
		fmt.Sprintf("STAT threads %d", s.spec.Workers),
	}
	w.replies = w.replies[:0]
	for _, l := range lines {
		w.replies = append(w.replies, reply{fixed: []byte(l + "\r\n")})
	}
	w.replies = append(w.replies, reply{fixed: replyEnd})
	return w.replies
}
