// Package kvstore implements the reproduction's Redis counterpart: a
// single-threaded, epoll-driven, in-memory key-value server speaking a
// RESP-like text protocol. It is one of the three servers of the paper's
// evaluation (§5.2), with the version lineage 2.0.0 → 2.0.3 used there:
//
//   - 2.0.1 reverses the order of two system calls when handling client
//     commands (the stats clock and the reply write), which is why the
//     2.0.0→2.0.1 update needs exactly one DSL rule in the paper;
//   - 2.0.2 adds APPEND; 2.0.3 adds GETSET;
//   - all versions optionally carry revision 7fb16bac's bug: HMGET
//     against a key of the wrong type crashes the server (§6.2).
//
// Beyond the paper's lineage, version 2.1.0 adds key expiry (EXPIRE and
// TTL) as an extension exercise: expiry decisions depend on the clock
// syscall, whose results MVE replays to the follower, so time-dependent
// state stays identical across versions. 2.1.0 also samples the clock
// before executing each command (it needs "now" for expiry), changing
// the per-command syscall order — the update therefore ships rewrite
// rules, like 2.0.0→2.0.1 does.
package kvstore

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"mvedsua/internal/dsu"
	"mvedsua/internal/proto"
	"mvedsua/internal/sysabi"
)

// Port is the server's listening port.
const Port = 6379

// Spec captures version-specific behaviour. A single code base with
// feature switches stands in for the four source trees.
type Spec struct {
	Version string
	// ClockBeforeWrite: 2.0.0 samples the stats clock before writing the
	// reply; 2.0.1 onwards reversed the two calls.
	ClockBeforeWrite bool
	// HasAppend: APPEND exists from 2.0.2.
	HasAppend bool
	// HasGetSet: GETSET exists from 2.0.3.
	HasGetSet bool
	// HasExpire: EXPIRE/TTL exist from 2.1.0 (extension version), which
	// also samples the clock before executing each command.
	HasExpire bool
	// BugHMGET injects revision 7fb16bac: HMGET on a non-hash key
	// crashes instead of replying -WRONGTYPE.
	BugHMGET bool
}

// Versions in lineage order; 2.1.0 is this reproduction's extension
// version (key expiry).
var Versions = []string{"2.0.0", "2.0.1", "2.0.2", "2.0.3", "2.1.0"}

// SpecFor builds the Spec for a version, optionally with the HMGET bug.
func SpecFor(version string, bugHMGET bool) Spec {
	s := Spec{Version: version, BugHMGET: bugHMGET}
	switch version {
	case "2.0.0":
		s.ClockBeforeWrite = true
	case "2.0.1":
	case "2.0.2":
		s.HasAppend = true
	case "2.0.3":
		s.HasAppend = true
		s.HasGetSet = true
	case "2.1.0":
		s.HasAppend = true
		s.HasGetSet = true
		s.HasExpire = true
	default:
		panic("kvstore: unknown version " + version)
	}
	return s
}

// valueType tags entries.
type valueType int

const (
	typeString valueType = iota
	typeHash
)

type entry struct {
	typ  valueType
	str  string
	hash map[string]string
	// expireAt is the virtual-time deadline after which the entry is
	// treated as absent (0 = no expiry). Only 2.1.0+ sets it.
	expireAt time.Duration
	// gen is the lazy-migration generation this entry was last
	// transformed to; entries below the server's xformGen still owe
	// migration steps (one per skipped hop).
	gen int
}

// cloneEntry is what unsharing an entry takes: the hash map is a
// reference, so a field-by-field copy would still share it.
func cloneEntry(e entry) entry {
	if e.hash != nil {
		shared := e.hash
		e.hash = make(map[string]string, len(shared))
		for k, v := range shared { // maporder: ok — map-to-map clone, order unobservable
			e.hash[k] = v
		}
	}
	return e
}

type connState struct {
	in *proto.LineBuffer
}

// Server is one version instance of the store. It implements dsu.App.
type Server struct {
	spec Spec

	listenFD int
	epollFD  int
	conns    map[int]*connState
	db       store

	// Per-request scratch — the buffer offered to read, the command's
	// tokens (views of its line), the encoded reply — reused by every
	// request. Each instance has its own (Fork copies none of it): a leader
	// parked in a write on a full ring still has the reply in here when its
	// fork starts serving.
	rbuf  [4096]byte
	args  [][]byte
	reply []byte

	// xformGen counts the lazy version hops this instance has absorbed;
	// entries at a lower generation still owe migration steps.
	xformGen int
	// lazy is the in-progress lazy migration, nil once every entry has
	// caught up (or when the last update was eager).
	lazy *lazyState

	// Ops counts executed commands (exported for benchmarks).
	Ops int64
	// CmdCPU is the user-space CPU charged per command (benchmark cost
	// model; zero in functional tests).
	CmdCPU time.Duration
	// ListenPort overrides the default Port when non-zero (cluster
	// deployments run several nodes side by side).
	ListenPort int64
}

// lazyState tracks one in-progress lazy migration: how many entries
// still lag, a sorted key snapshot for the deterministic background
// sweep, and the migration work the current command has accrued (billed
// to the requesting connection just before its reply is written).
type lazyState struct {
	perEntry time.Duration
	pending  int      // entries in the db still below xformGen
	keys     []string // sorted snapshot of lagging keys at begin time; never written, so forks share it
	cursor   int      // sweep position in keys

	chargeSteps int // generation steps applied by the current command
	chargeCost  time.Duration
}

// New builds a cold server for the given spec.
func New(spec Spec) *Server {
	return &Server{
		spec:  spec,
		conns: make(map[int]*connState),
	}
}

// Version implements dsu.App.
func (s *Server) Version() string { return s.spec.Version }

// DBSize returns the number of keys (state-size hook for benchmarks).
func (s *Server) DBSize() int { return s.db.len() }

// Preload inserts n synthetic string entries directly into the store
// (Figure 7's 1M-entry initial state).
func (s *Server) Preload(n int) {
	var scratch []byte
	for i := 0; i < n; i++ {
		var k, v string
		k, v, scratch = preloadPair(scratch, i)
		s.db.put(k, entry{typ: typeString, str: v})
	}
}

// preloadPair builds entry i's "key:%08d" and "val:%08d" in scratch and
// returns them as the two halves of one string.
func preloadPair(scratch []byte, i int) (key, val string, _ []byte) {
	scratch = appendPadded(append(scratch[:0], "key:"...), i)
	scratch = appendPadded(append(scratch, "val:"...), i)
	pair := string(scratch)
	return pair[:len(pair)/2], pair[len(pair)/2:], scratch
}

// appendPadded appends i (non-negative) as %08d does.
func appendPadded(b []byte, i int) []byte {
	for width := 10_000_000; width > i && width > 1; width /= 10 {
		b = append(b, '0')
	}
	return strconv.AppendInt(b, int64(i), 10)
}

// NetworkFDs returns every kernel descriptor the server holds (listener,
// epoll, connections); a cluster manager closes these to simulate the
// process dying, as a real restart would reset client connections.
func (s *Server) NetworkFDs() []int {
	fds := []int{s.listenFD, s.epollFD}
	conns := make([]int, 0, len(s.conns))
	for fd := range s.conns { // maporder: ok — conn fds are sorted below
		conns = append(conns, fd)
	}
	sort.Ints(conns)
	return append(fds, conns...)
}

// ResetSessions drops all connection state (a checkpointed restart has
// no live connections).
func (s *Server) ResetSessions() {
	s.conns = make(map[int]*connState)
}

// AdoptState takes ownership of another instance's store contents (a
// checkpoint restore).
func (s *Server) AdoptState(from *Server) {
	s.db = from.db
	from.db = store{}
}

// Fork implements dsu.App. What is per-process is copied; the store is
// shared until either side writes (see store), so a fork costs the same
// whatever the store holds.
func (s *Server) Fork() dsu.App {
	out := &Server{
		spec:       s.spec,
		listenFD:   s.listenFD,
		epollFD:    s.epollFD,
		conns:      make(map[int]*connState, len(s.conns)),
		db:         s.db.fork(),
		xformGen:   s.xformGen,
		Ops:        s.Ops,
		CmdCPU:     s.CmdCPU,
		ListenPort: s.ListenPort,
	}
	if s.lazy != nil {
		l := *s.lazy
		out.lazy = &l
	}
	for fd, cs := range s.conns { // maporder: ok — map-to-map clone, order unobservable
		out.conns[fd] = &connState{in: cs.in.Clone()}
	}
	return out
}

// beginLazyMigration arms per-entry lazy transformation after a spec
// swap: every entry below the bumped generation owes one more migration
// step, paid on first access or by the background sweep. Stacks: an
// entry untouched across two hops owes (and pays) two steps at once.
func (s *Server) beginLazyMigration(perEntry time.Duration) {
	s.xformGen++
	if s.lazy != nil && s.lazy.perEntry > perEntry {
		perEntry = s.lazy.perEntry // keep the dearest outstanding rate
	}
	keys := make([]string, 0, s.db.len())
	s.db.each(func(k string, e *entry) {
		if e.gen < s.xformGen {
			keys = append(keys, k)
		}
	})
	sort.Strings(keys)
	if len(keys) == 0 {
		s.lazy = nil
		return
	}
	s.lazy = &lazyState{perEntry: perEntry, pending: len(keys), keys: keys}
}

// finishLazyEagerly absorbs any outstanding lazy debt during an eager
// whole-heap transformation, which rewrites every entry anyway. Every
// lagging entry is in the snapshot, so one unbounded sweep writes exactly
// those — and unshares nothing that has already caught up.
func (s *Server) finishLazyEagerly() {
	if s.lazy == nil {
		return
	}
	s.SweepLazy(len(s.lazy.keys))
	s.lazy = nil
}

// touch migrates a just-accessed entry to the current generation,
// accruing the skipped hops' work against the current command. Migrating
// is a write: the entry returned replaces e.
func (s *Server) touch(key string, e *entry) *entry {
	if s.lazy == nil || e.gen >= s.xformGen {
		return e
	}
	steps := s.xformGen - e.gen
	e = s.db.mut(key)
	e.gen = s.xformGen
	s.lazy.pending--
	s.lazy.chargeSteps += steps
	s.lazy.chargeCost += time.Duration(steps) * s.lazy.perEntry
	return e
}

// discard notes that a lagging entry left the db unread (deleted,
// expired, or overwritten wholesale): its migration debt dies with it.
func (s *Server) discard(e *entry) {
	if s.lazy != nil && e.gen < s.xformGen {
		s.lazy.pending--
	}
}

// drop removes a live entry from the db, debt included.
func (s *Server) drop(key string, e *entry) {
	s.discard(e)
	s.db.del(key)
}

// put installs a fresh entry (already at the current generation),
// retiring any lagging entry it replaces, and returns it for writing.
// Overwriting a key this instance has written before allocates nothing.
func (s *Server) put(key string, e entry) *entry {
	e.gen = s.xformGen
	if s.lazy != nil {
		if old := s.db.get(key); old != nil {
			s.discard(old)
		}
	}
	return s.db.put(key, e)
}

// maybeFinishLazy drops the migration bookkeeping once nothing lags,
// restoring the zero-cost fast path.
func (s *Server) maybeFinishLazy() {
	if s.lazy != nil && s.lazy.pending == 0 && s.lazy.chargeSteps == 0 {
		s.lazy = nil
	}
}

// chargeLazy bills the migration work the just-executed command
// performed to the requesting connection, before its reply is written.
func (s *Server) chargeLazy(env *dsu.Env) {
	if s.lazy == nil || s.lazy.chargeSteps == 0 {
		return
	}
	steps, cost := s.lazy.chargeSteps, s.lazy.chargeCost
	s.lazy.chargeSteps, s.lazy.chargeCost = 0, 0
	env.ChargeLazyXform(steps, cost)
	s.maybeFinishLazy()
}

// PendingLazy implements dsu.LazyApp.
func (s *Server) PendingLazy() int {
	if s.lazy == nil {
		return 0
	}
	return s.lazy.pending
}

// SweepLazy implements dsu.LazyApp: migrate up to max entries from the
// sorted snapshot, skipping keys already retired or caught up on access.
func (s *Server) SweepLazy(max int) (int, time.Duration) {
	if s.lazy == nil {
		return 0, 0
	}
	la := s.lazy
	migrated, cost := 0, time.Duration(0)
	for migrated < max && la.cursor < len(la.keys) {
		k := la.keys[la.cursor]
		la.cursor++
		e := s.db.get(k)
		if e == nil || e.gen >= s.xformGen {
			continue
		}
		cost += time.Duration(s.xformGen-e.gen) * la.perEntry
		s.db.mut(k).gen = s.xformGen
		la.pending--
		migrated++
	}
	s.maybeFinishLazy()
	return migrated, cost
}

// Main implements dsu.App: the epoll-driven serving loop.
func (s *Server) Main(env *dsu.Env) {
	if !env.Updating() {
		port := s.ListenPort
		if port == 0 {
			port = Port
		}
		r := env.Sys(sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{port, 0}})
		if !r.OK() {
			panic(fmt.Sprintf("kvstore: bind port %d: %v", port, r.Err))
		}
		s.listenFD = int(r.Ret)
		r = env.Sys(sysabi.Call{Op: sysabi.OpEpollCreate})
		s.epollFD = int(r.Ret)
		env.Sys(sysabi.Call{Op: sysabi.OpEpollCtl, FD: s.epollFD, Args: [2]int64{int64(s.listenFD), 1}})
	}
	for !env.Exiting() {
		if env.UpdatePoint("main_loop") == dsu.Exit {
			return
		}
		r := env.Sys(sysabi.Call{Op: sysabi.OpEpollWait, FD: s.epollFD, Args: [2]int64{64, 0}})
		if !r.OK() {
			return
		}
		for _, fd := range r.Ready {
			if fd == s.listenFD {
				s.acceptOne(env)
				continue
			}
			if !s.serveConn(env, fd) {
				continue
			}
		}
	}
}

func (s *Server) acceptOne(env *dsu.Env) {
	r := env.Sys(sysabi.Call{Op: sysabi.OpAccept, FD: s.listenFD})
	if !r.OK() {
		return
	}
	fd := int(r.Ret)
	s.conns[fd] = &connState{in: &proto.LineBuffer{}}
	env.Sys(sysabi.Call{Op: sysabi.OpEpollCtl, FD: s.epollFD, Args: [2]int64{int64(fd), 1}})
}

// serveConn reads available data and executes complete commands. It
// reports false if the connection was closed.
func (s *Server) serveConn(env *dsu.Env, fd int) bool {
	cs, ok := s.conns[fd]
	if !ok {
		return false
	}
	r := env.Sys(sysabi.Call{Op: sysabi.OpRead, FD: fd, Buf: s.rbuf[:0], Args: [2]int64{4096, 0}})
	if !r.OK() || r.Ret == 0 {
		s.closeConn(env, fd)
		return false
	}
	cs.in.Feed(r.Data)
	for {
		line, ok := cs.in.Next()
		if !ok {
			break
		}
		if s.CmdCPU > 0 {
			env.Task().Advance(s.CmdCPU)
		}
		if s.spec.HasExpire {
			// 2.1.0 samples the clock before executing: expiry needs
			// "now", and via MVE replay the follower sees the leader's
			// timestamp, keeping expiry decisions identical.
			now := time.Duration(env.Sys(sysabi.Call{Op: sysabi.OpClock}).Ret)
			reply := s.executeAt(now, line)
			s.chargeLazy(env)
			env.Sys(sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: reply})
			continue
		}
		reply := s.execute(line)
		s.chargeLazy(env)
		s.respond(env, fd, reply)
	}
	return true
}

func (s *Server) closeConn(env *dsu.Env, fd int) {
	env.Sys(sysabi.Call{Op: sysabi.OpEpollCtl, FD: s.epollFD, Args: [2]int64{int64(fd), 0}})
	env.Sys(sysabi.Call{Op: sysabi.OpClose, FD: fd})
	delete(s.conns, fd)
}

// respond writes the reply and samples the stats clock, in the
// version-specific order (the 2.0.0 vs 2.0.1 difference of §5.2).
func (s *Server) respond(env *dsu.Env, fd int, reply []byte) {
	if s.spec.ClockBeforeWrite {
		env.Sys(sysabi.Call{Op: sysabi.OpClock})
		env.Sys(sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: reply})
	} else {
		env.Sys(sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: reply})
		env.Sys(sysabi.Call{Op: sysabi.OpClock})
	}
}

// execute runs one command line with no time context (pre-2.1.0).
func (s *Server) execute(line []byte) []byte { return s.executeAt(0, line) }

// live returns key's entry for reading, nil if there is none — deleting
// it first if it expired as of now (the 2.1.0 expiry semantics; now==0
// disables expiry).
func (s *Server) live(now time.Duration, key string) *entry {
	e := s.db.get(key)
	if e != nil && now > 0 && e.expireAt > 0 && now >= e.expireAt {
		s.drop(key, e)
		return nil
	}
	return e
}

// lookup is the one way a command reads a key: expiry, then lazy
// migration. The entry is for reading only; a command that goes on to
// change it asks s.db.mut for the writable one just before it does, and
// keeps neither across a write to the same key.
func (s *Server) lookup(now time.Duration, key string) *entry {
	e := s.live(now, key)
	if e != nil {
		e = s.touch(key, e)
	}
	return e
}

// Replies that never vary are encoded once; nobody writes to them.
var (
	replyOK   = proto.SimpleString("OK")
	replyNull = proto.NullBulk()
)

// bulk and integer encode a reply into the instance's reply scratch: it
// is valid until the next command executes.
func (s *Server) bulk(v string) []byte {
	s.reply = proto.AppendBulk(s.reply[:0], v)
	return s.reply
}

func (s *Server) integer(n int64) []byte {
	s.reply = proto.AppendInteger(s.reply[:0], n)
	return s.reply
}

// executeAt runs one command line and returns the encoded reply; now is
// the pre-sampled clock for expiry decisions (0 before 2.1.0). The tokens
// are views of line: a key is looked up as a string that does not escape,
// and only what the store keeps — a value, a key it does not hold yet —
// is copied.
func (s *Server) executeAt(now time.Duration, line []byte) []byte {
	s.Ops++
	s.args = proto.AppendFields(s.args[:0], line)
	args := s.args
	if len(args) == 0 {
		return proto.ErrorReply("empty command")
	}
	cmd := args[0]
	switch string(cmd) {
	case "PING", "ping":
		return proto.SimpleString("PONG")
	case "SET", "set":
		if len(args) < 3 {
			return proto.ErrorReply("wrong number of arguments for 'set' command")
		}
		s.put(s.db.keyFor(args[1]), entry{typ: typeString, str: string(args[2])})
		return replyOK
	case "GET", "get":
		if len(args) != 2 {
			return proto.ErrorReply("wrong number of arguments for 'get' command")
		}
		e := s.lookup(now, string(args[1]))
		if e == nil {
			return replyNull
		}
		if e.typ != typeString {
			return proto.WrongTypeReply()
		}
		return s.bulk(e.str)
	case "DEL", "del":
		if len(args) < 2 {
			return proto.ErrorReply("wrong number of arguments for 'del' command")
		}
		n := int64(0)
		for _, k := range args[1:] {
			// Not lookup: a lagging entry's debt dies with it, unpaid.
			if e := s.live(now, string(k)); e != nil {
				s.drop(string(k), e)
				n++
			}
		}
		return s.integer(n)
	case "EXISTS", "exists":
		if len(args) != 2 {
			return proto.ErrorReply("wrong number of arguments for 'exists' command")
		}
		if s.lookup(now, string(args[1])) != nil {
			return s.integer(1)
		}
		return s.integer(0)
	case "INCR", "incr":
		if len(args) != 2 {
			return proto.ErrorReply("wrong number of arguments for 'incr' command")
		}
		e := s.lookup(now, string(args[1]))
		if e == nil {
			e = s.put(string(args[1]), entry{typ: typeString, str: "0"})
		}
		if e.typ != typeString {
			return proto.WrongTypeReply()
		}
		n, err := strconv.ParseInt(e.str, 10, 64)
		if err != nil {
			return proto.ErrorReply("value is not an integer or out of range")
		}
		n++
		s.db.mut(string(args[1])).str = strconv.FormatInt(n, 10)
		return s.integer(n)
	case "HSET", "hset":
		if len(args) != 4 {
			return proto.ErrorReply("wrong number of arguments for 'hset' command")
		}
		e := s.lookup(now, string(args[1]))
		if e == nil {
			e = s.put(string(args[1]), entry{typ: typeHash, hash: make(map[string]string)})
		}
		if e.typ != typeHash {
			return proto.WrongTypeReply()
		}
		_, existed := e.hash[string(args[2])]
		s.db.mut(string(args[1])).hash[string(args[2])] = string(args[3])
		if existed {
			return s.integer(0)
		}
		return s.integer(1)
	case "HGET", "hget":
		if len(args) != 3 {
			return proto.ErrorReply("wrong number of arguments for 'hget' command")
		}
		e := s.lookup(now, string(args[1]))
		if e == nil {
			return replyNull
		}
		if e.typ != typeHash {
			return proto.WrongTypeReply()
		}
		v, ok := e.hash[string(args[2])]
		if !ok {
			return replyNull
		}
		return s.bulk(v)
	case "HMGET", "hmget":
		if len(args) < 3 {
			return proto.ErrorReply("wrong number of arguments for 'hmget' command")
		}
		e := s.lookup(now, string(args[1]))
		if e != nil && e.typ != typeHash {
			if s.spec.BugHMGET {
				// Revision 7fb16bac: the wrong-type check is missing and
				// the hash accessor dereferences a string entry.
				panic(fmt.Sprintf("kvstore %s: segfault in hmgetCommand (HMGET on %q of wrong type)",
					s.spec.Version, args[1]))
			}
			return proto.WrongTypeReply()
		}
		items := make([]*string, 0, len(args)-2)
		for _, f := range args[2:] {
			if e != nil {
				if v, has := e.hash[string(f)]; has {
					v := v
					items = append(items, &v)
					continue
				}
			}
			items = append(items, nil)
		}
		return proto.Array(items)
	case "TYPE", "type":
		if len(args) != 2 {
			return proto.ErrorReply("wrong number of arguments for 'type' command")
		}
		e := s.lookup(now, string(args[1]))
		if e == nil {
			return proto.SimpleString("none")
		}
		if e.typ == typeHash {
			return proto.SimpleString("hash")
		}
		return proto.SimpleString("string")
	case "DBSIZE", "dbsize":
		return s.integer(int64(s.db.len()))
	case "KEYS", "keys":
		keys := make([]string, 0, s.db.len())
		s.db.each(func(k string, _ *entry) { keys = append(keys, k) })
		sort.Strings(keys)
		items := make([]*string, len(keys))
		for i := range keys {
			items[i] = &keys[i]
		}
		return proto.Array(items)
	case "FLUSHDB", "flushdb":
		s.db = store{}
		if s.lazy != nil {
			s.lazy.pending = 0 // nothing left to migrate
		}
		return replyOK
	case "APPEND", "append":
		if !s.spec.HasAppend {
			return proto.ErrorReply(fmt.Sprintf("unknown command '%s'", cmd))
		}
		if len(args) != 3 {
			return proto.ErrorReply("wrong number of arguments for 'append' command")
		}
		e := s.lookup(now, string(args[1]))
		if e == nil {
			e = s.put(string(args[1]), entry{typ: typeString})
		}
		if e.typ != typeString {
			return proto.WrongTypeReply()
		}
		e = s.db.mut(string(args[1]))
		e.str += string(args[2])
		return s.integer(int64(len(e.str)))
	case "GETSET", "getset":
		if !s.spec.HasGetSet {
			return proto.ErrorReply(fmt.Sprintf("unknown command '%s'", cmd))
		}
		if len(args) != 3 {
			return proto.ErrorReply("wrong number of arguments for 'getset' command")
		}
		old := replyNull
		if e := s.lookup(now, string(args[1])); e != nil {
			if e.typ != typeString {
				return proto.WrongTypeReply()
			}
			old = s.bulk(e.str)
		}
		s.put(s.db.keyFor(args[1]), entry{typ: typeString, str: string(args[2])})
		return old
	case "EXPIRE", "expire":
		if !s.spec.HasExpire {
			return proto.ErrorReply(fmt.Sprintf("unknown command '%s'", cmd))
		}
		if len(args) != 3 {
			return proto.ErrorReply("wrong number of arguments for 'expire' command")
		}
		secs, err := strconv.ParseInt(string(args[2]), 10, 64)
		if err != nil || secs < 0 {
			return proto.ErrorReply("value is not an integer or out of range")
		}
		if s.lookup(now, string(args[1])) == nil {
			return s.integer(0)
		}
		s.db.mut(string(args[1])).expireAt = now + time.Duration(secs)*time.Second
		return s.integer(1)
	case "PERSIST", "persist":
		if !s.spec.HasExpire {
			return proto.ErrorReply(fmt.Sprintf("unknown command '%s'", cmd))
		}
		if len(args) != 2 {
			return proto.ErrorReply("wrong number of arguments for 'persist' command")
		}
		if e := s.lookup(now, string(args[1])); e == nil || e.expireAt == 0 {
			return s.integer(0)
		}
		s.db.mut(string(args[1])).expireAt = 0
		return s.integer(1)
	case "TTL", "ttl":
		if !s.spec.HasExpire {
			return proto.ErrorReply(fmt.Sprintf("unknown command '%s'", cmd))
		}
		if len(args) != 2 {
			return proto.ErrorReply("wrong number of arguments for 'ttl' command")
		}
		e := s.lookup(now, string(args[1]))
		if e == nil {
			return s.integer(-2)
		}
		if e.expireAt == 0 {
			return s.integer(-1)
		}
		return s.integer(int64((e.expireAt - now) / time.Second))
	default:
		return proto.ErrorReply(fmt.Sprintf("unknown command '%s'", cmd))
	}
}
