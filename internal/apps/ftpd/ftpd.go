// Package ftpd implements the reproduction's Vsftpd counterpart (§5.1 of
// the paper): a single-process FTP server whose 14 versions (1.1.0 …
// 2.0.6) carry the behavioural deltas that make the paper's Table 1 rule
// counts come out: changed reply strings and newly added commands (STOU
// in 1.2.0, FEAT in 2.0.0, MDTM in 2.0.4).
//
// Simplification: the data channel is inlined on the control connection
// (transfers are framed by the 150/226 replies). This preserves what the
// evaluation needs — file-system syscall traffic proportional to file
// size (the paper's "small" 5-byte vs "large" 10MB distinction) and the
// reply sequences the DSL rules operate on — without a second socket per
// transfer.
package ftpd

import (
	"bytes"
	"fmt"
	"time"

	"mvedsua/internal/dsu"
	"mvedsua/internal/proto"
	"mvedsua/internal/sysabi"
)

// Port is the control-channel port.
const Port = 21

// ChunkSize is the transfer chunk size; a 10MB RETR issues ~2560
// fread+write pairs, making large transfers kernel-heavy as in §6.1.
const ChunkSize = 4096

// Root is the served directory inside the virtual filesystem.
const Root = "/srv/ftp"

// Versions in lineage order: 14 versions, 13 update pairs (Table 1).
var Versions = []string{
	"1.1.0", "1.1.1", "1.1.2", "1.1.3",
	"1.2.0", "1.2.1", "1.2.2",
	"2.0.0", "2.0.1", "2.0.2", "2.0.3", "2.0.4", "2.0.5", "2.0.6",
}

// Spec carries all version-visible behaviour. Replies live here so the
// update rule generator can diff them.
type Spec struct {
	Version    string
	Banner     string // 220 greeting on connect
	SystReply  string
	QuitReply  string
	ListHeader string // 150 line before a listing
	NoopReply  string
	// PwdSuffix is appended after the quoted directory in PWD replies
	// ("" or " is the current directory").
	PwdSuffix string
	// TypeStyle selects the TYPE reply wording: 0 = "200 Switching to X
	// mode.", 1 = "200 Mode set to X.".
	TypeStyle int

	HasSTOU bool // 1.2.0+
	HasFEAT bool // 2.0.0+
	HasMDTM bool // 2.0.4+
}

// SpecFor builds the behaviour table for a version.
func SpecFor(version string) Spec {
	s := Spec{
		Version:    version,
		Banner:     "220 FTP server ready.",
		SystReply:  "215 UNIX Type: L8",
		QuitReply:  "221 Goodbye.",
		ListHeader: "150 Here comes the directory listing.",
		NoopReply:  "200 NOOP ok.",
	}
	at := func(v string) bool { return versionAtLeast(version, v) }
	if at("1.1.2") {
		// 1.1.2 reworded the banner and the SYST reply (2 rules).
		s.Banner = "220 (vsFTPd) ready."
		s.SystReply = "215 UNIX Type: L8 (vsFTPd)"
	}
	if at("1.2.0") {
		// 1.2.0 added STOU and extended the PWD reply (2 rules).
		s.HasSTOU = true
		s.PwdSuffix = " is the current directory"
	}
	if at("2.0.0") {
		// 2.0.0 reworded the banner and QUIT, and added FEAT (3 rules).
		s.Banner = "220 (vsFTPd 2.0) ready."
		s.QuitReply = "221 Goodbye!"
		s.HasFEAT = true
	}
	if at("2.0.2") {
		// 2.0.2 reworded the listing header (1 rule).
		s.ListHeader = "150 Directory listing follows."
	}
	if at("2.0.3") {
		// 2.0.3 reworded the TYPE reply (1 rule).
		s.TypeStyle = 1
	}
	if at("2.0.4") {
		// 2.0.4 added MDTM (1 rule).
		s.HasMDTM = true
	}
	if at("2.0.5") {
		// 2.0.5 reworded NOOP (1 rule).
		s.NoopReply = "200 NOOP command successful."
	}
	if !knownVersion(version) {
		panic("ftpd: unknown version " + version)
	}
	return s
}

func knownVersion(v string) bool {
	for _, name := range Versions {
		if name == v {
			return true
		}
	}
	return false
}

// versionAtLeast compares lineage positions.
func versionAtLeast(v, floor string) bool {
	vi, fi := -1, -1
	for i, name := range Versions {
		if name == v {
			vi = i
		}
		if name == floor {
			fi = i
		}
	}
	return vi >= 0 && fi >= 0 && vi >= fi
}

// session is per-control-connection state.
type session struct {
	in       *proto.LineBuffer
	user     string
	loggedIn bool
	cwd      string
	xferType string // "ASCII" or "BINARY"
}

func (s *session) clone() *session {
	cp := *s
	cp.in = s.in.Clone()
	return &cp
}

// Server is one version instance. It implements dsu.App.
type Server struct {
	spec Spec

	listenFD int
	epollFD  int
	sessions map[int]*session

	stouCounter int

	// rbuf is the buffer offered to every read: a control read is fed to
	// the session's line buffer, and a file chunk written out, before the
	// next one. Each instance has its own (Fork does not copy it).
	rbuf [ChunkSize]byte
	// out is the scratch every reply line is built in, reused as soon as
	// its write returns; Fork leaves it out too.
	out []byte
	// strs holds what a session keeps of a command line — the user, the
	// directory — and the paths resolved from it. Fork gives the copy a
	// fresh one (see proto.Arena).
	strs proto.Arena

	// Ops counts executed commands, for benchmarks.
	Ops int64
	// CmdCPU is the user-space CPU charged per command (benchmark cost
	// model; zero in functional tests).
	CmdCPU time.Duration
}

// New builds a cold server.
func New(spec Spec) *Server {
	return &Server{spec: spec, sessions: make(map[int]*session)}
}

// Version implements dsu.App.
func (s *Server) Version() string { return s.spec.Version }

// Fork implements dsu.App with a deep copy.
func (s *Server) Fork() dsu.App {
	out := &Server{
		spec:        s.spec,
		listenFD:    s.listenFD,
		epollFD:     s.epollFD,
		sessions:    make(map[int]*session, len(s.sessions)),
		stouCounter: s.stouCounter,
		Ops:         s.Ops,
		CmdCPU:      s.CmdCPU,
	}
	for fd, sess := range s.sessions { // maporder: ok — map-to-map clone, order unobservable
		out.sessions[fd] = sess.clone()
	}
	return out
}

// Main implements dsu.App: the epoll-driven control loop.
func (s *Server) Main(env *dsu.Env) {
	if !env.Updating() {
		r := env.Sys(sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{Port, 0}})
		if !r.OK() {
			panic(fmt.Sprintf("ftpd: bind: %v", r.Err))
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
			s.serveConn(env, fd)
		}
	}
}

func (s *Server) acceptOne(env *dsu.Env) {
	r := env.Sys(sysabi.Call{Op: sysabi.OpAccept, FD: s.listenFD})
	if !r.OK() {
		return
	}
	fd := int(r.Ret)
	s.sessions[fd] = &session{in: &proto.LineBuffer{}, cwd: Root, xferType: "ASCII"}
	env.Sys(sysabi.Call{Op: sysabi.OpEpollCtl, FD: s.epollFD, Args: [2]int64{int64(fd), 1}})
	s.reply(env, fd, s.spec.Banner)
}

func (s *Server) serveConn(env *dsu.Env, fd int) {
	sess, ok := s.sessions[fd]
	if !ok {
		return
	}
	r := env.Sys(sysabi.Call{Op: sysabi.OpRead, FD: fd, Buf: s.rbuf[:0], Args: [2]int64{4096, 0}})
	if !r.OK() || r.Ret == 0 {
		s.closeConn(env, fd)
		return
	}
	sess.in.Feed(r.Data)
	for {
		line, ok := sess.in.Next()
		if !ok {
			break
		}
		if quit := s.execute(env, fd, sess, line); quit {
			s.closeConn(env, fd)
			return
		}
	}
}

func (s *Server) closeConn(env *dsu.Env, fd int) {
	env.Sys(sysabi.Call{Op: sysabi.OpEpollCtl, FD: s.epollFD, Args: [2]int64{int64(fd), 0}})
	env.Sys(sysabi.Call{Op: sysabi.OpClose, FD: fd})
	delete(s.sessions, fd)
}

// reply writes the concatenation of parts and CRLF, built in s.out.
func (s *Server) reply(env *dsu.Env, fd int, parts ...string) {
	s.out = s.out[:0]
	for _, p := range parts {
		s.out = append(s.out, p...)
	}
	s.out = append(s.out, "\r\n"...)
	env.Sys(sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: s.out})
}

// execute runs one control command; it reports whether the session ends.
// The line is a view: what the session keeps of it is cut from s.strs.
func (s *Server) execute(env *dsu.Env, fd int, sess *session, line []byte) bool {
	s.Ops++
	if s.CmdCPU > 0 {
		env.Task().Advance(s.CmdCPU)
	}
	var upper [8]byte
	verb, arg := proto.ParseFTPCommand(upper[:0], line)
	switch string(verb) {
	case "USER":
		sess.user = s.strs.Copy(arg)
		s.reply(env, fd, "331 Please specify the password.")
	case "PASS":
		if sess.user == "" {
			s.reply(env, fd, "503 Login with USER first.")
			return false
		}
		sess.loggedIn = true
		s.reply(env, fd, "230 Login successful.")
	case "QUIT":
		s.reply(env, fd, s.spec.QuitReply)
		return true
	case "SYST":
		s.reply(env, fd, s.spec.SystReply)
	case "NOOP":
		s.reply(env, fd, s.spec.NoopReply)
	case "TYPE":
		mode := "ASCII"
		if bytes.EqualFold(arg, []byte("I")) {
			mode = "BINARY"
		}
		sess.xferType = mode
		if s.spec.TypeStyle == 0 {
			s.reply(env, fd, "200 Switching to ", mode, " mode.")
		} else {
			s.reply(env, fd, "200 Mode set to ", mode, ".")
		}
	case "PWD":
		s.reply(env, fd, fmt.Sprintf("257 %q%s", sess.cwd, s.spec.PwdSuffix))
	case "CWD":
		if !s.requireLogin(env, fd, sess) {
			return false
		}
		if len(arg) == 0 {
			s.reply(env, fd, "550 Failed to change directory.")
			return false
		}
		sess.cwd = s.resolve(sess, arg)
		s.reply(env, fd, "250 Directory successfully changed.")
	case "LIST":
		if !s.requireLogin(env, fd, sess) {
			return false
		}
		s.reply(env, fd, s.spec.ListHeader)
		r := env.Sys(sysabi.Call{Op: sysabi.OpListDir, Path: sess.cwd})
		if r.OK() && len(r.Data) > 0 {
			env.Sys(sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: r.Data})
		}
		s.reply(env, fd, "226 Directory send OK.")
	case "RETR":
		if !s.requireLogin(env, fd, sess) {
			return false
		}
		s.retr(env, fd, sess, arg)
	case "STOR":
		if !s.requireLogin(env, fd, sess) {
			return false
		}
		s.stor(env, fd, sess, arg, false)
	case "STOU":
		if !s.spec.HasSTOU {
			s.unknown(env, fd)
			return false
		}
		if !s.requireLogin(env, fd, sess) {
			return false
		}
		s.stor(env, fd, sess, arg, true)
	case "FEAT":
		if !s.spec.HasFEAT {
			s.unknown(env, fd)
			return false
		}
		s.reply(env, fd, "211 Features: STOU MDTM")
	case "MDTM":
		if !s.spec.HasMDTM {
			s.unknown(env, fd)
			return false
		}
		path := s.resolve(sess, arg)
		r := env.Sys(sysabi.Call{Op: sysabi.OpStat, Path: path})
		if !r.OK() {
			s.reply(env, fd, "550 Could not get file modification time.")
			return false
		}
		s.reply(env, fd, "213 20260101000000")
	case "FOOBAR":
		// Guaranteed-invalid in every version: the target of the
		// Figure 5 redirect rule.
		s.unknown(env, fd)
	default:
		s.unknown(env, fd)
	}
	return false
}

func (s *Server) unknown(env *dsu.Env, fd int) {
	env.Sys(sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: proto.FTPUnknown()})
}

func (s *Server) requireLogin(env *dsu.Env, fd int, sess *session) bool {
	if !sess.loggedIn {
		s.reply(env, fd, "530 Please login with USER and PASS.")
		return false
	}
	return true
}

// resolve returns the path name names from the session's directory, cut
// from s.strs. The path ends in name.
func (s *Server) resolve(sess *session, name []byte) string {
	if bytes.HasPrefix(name, []byte("/")) {
		return s.strs.Copy(name)
	}
	s.strs.Grow(len(sess.cwd) + 1 + len(name))
	s.strs.WriteString(sess.cwd)
	s.strs.WriteString("/")
	s.strs.Write(name)
	return s.strs.Cut()
}

// retr streams a file to the client in ChunkSize pieces.
func (s *Server) retr(env *dsu.Env, fd int, sess *session, arg []byte) {
	if len(arg) == 0 {
		s.reply(env, fd, "550 Failed to open file.")
		return
	}
	path := s.resolve(sess, arg)
	name := path[len(path)-len(arg):]
	r := env.Sys(sysabi.Call{Op: sysabi.OpOpen, Path: path, Args: [2]int64{sysabi.OpenRead, 0}})
	if !r.OK() {
		s.reply(env, fd, "550 Failed to open file.")
		return
	}
	file := int(r.Ret)
	s.reply(env, fd, "150 Opening ", sess.xferType, " mode data connection for ", name, ".")
	for {
		r = env.Sys(sysabi.Call{Op: sysabi.OpFRead, FD: file, Buf: s.rbuf[:0], Args: [2]int64{ChunkSize, 0}})
		if !r.OK() || r.Ret == 0 {
			break
		}
		env.Sys(sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: r.Data})
	}
	env.Sys(sysabi.Call{Op: sysabi.OpClose, FD: file})
	if !r.OK() {
		s.reply(env, fd, "451 Failure reading local file.")
		return
	}
	s.reply(env, fd, "226 Transfer complete.")
}

// stor writes the inline payload to a file; unique names for STOU.
func (s *Server) stor(env *dsu.Env, fd int, sess *session, arg []byte, unique bool) {
	var name, content []byte
	if unique {
		s.stouCounter++
		name = fmt.Appendf(nil, "stou.%04d", s.stouCounter)
		content = arg
	} else {
		name, content, _ = bytes.Cut(arg, []byte(" "))
		if len(name) == 0 {
			s.reply(env, fd, "553 Could not create file.")
			return
		}
	}
	path := s.resolve(sess, name)
	r := env.Sys(sysabi.Call{Op: sysabi.OpOpen, Path: path, Args: [2]int64{sysabi.OpenWrite, 0}})
	if !r.OK() {
		s.reply(env, fd, "553 Could not create file.")
		return
	}
	file := int(r.Ret)
	r = env.Sys(sysabi.Call{Op: sysabi.OpFWrite, FD: file, Buf: content})
	env.Sys(sysabi.Call{Op: sysabi.OpClose, FD: file})
	if !r.OK() {
		s.reply(env, fd, "451 Failure writing to local file.")
		return
	}
	if unique {
		s.reply(env, fd, "226 Transfer complete. Unique file: ", path[len(path)-len(name):])
	} else {
		s.reply(env, fd, "226 Transfer complete.")
	}
}
