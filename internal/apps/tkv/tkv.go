// Package tkv implements the paper's running example (§2.1, Figure 1):
// a tiny key-value store whose update adds a type field to every entry
// and new typed commands. It exists to demonstrate the Figure 4 rewrite
// rules end-to-end and to serve as the library's quickstart application.
//
// Protocol (one command per line):
//
//	v1: PUT k v        -> OK
//	    GET k          -> VAL v | NOT-FOUND
//	v2 adds:
//	    PUT-<type> k v -> OK        (type: string, number, date)
//	    TYPE k         -> TYPE <t>  | NOT-FOUND
//
// Anything else answers "ERR bad command".
package tkv

import (
	"bytes"
	"fmt"
	"time"

	"mvedsua/internal/dsl"
	"mvedsua/internal/dsu"
	"mvedsua/internal/proto"
	"mvedsua/internal/sysabi"
)

// Port is the server's listening port.
const Port = 7070

// entry is a stored value; Type is empty in v1 (the field does not exist
// there) and "string"/"number"/"date" in v2.
type entry struct {
	Val  string
	Type string
}

// Server is one version instance; it implements dsu.App. The server is
// deliberately minimal — one client connection at a time — mirroring the
// paper's illustrative API of Figure 1.
type Server struct {
	version  string
	strict   bool // v2-strict drops the plain PUT command (Rule 2's scenario)
	listenFD int
	connFD   int
	table    map[string]entry

	// Per-request scratch: the buffer offered to read and the command's
	// tokens, views of its line. Each instance has its own (Fork copies
	// none of it).
	rbuf [1024]byte
	args [][]byte

	// Ops counts executed commands.
	Ops int64
}

// New builds a cold server. Version must be "v1" or "v2"; strict only
// applies to v2.
func New(version string, strict bool) *Server {
	return &Server{version: version, strict: strict, connFD: -1, table: make(map[string]entry)}
}

// Version implements dsu.App.
func (s *Server) Version() string { return s.version }

// Fork implements dsu.App.
func (s *Server) Fork() dsu.App {
	out := &Server{
		version:  s.version,
		strict:   s.strict,
		listenFD: s.listenFD,
		connFD:   s.connFD,
		table:    make(map[string]entry, len(s.table)),
		Ops:      s.Ops,
	}
	for k, v := range s.table { // maporder: ok — map-to-map clone, order unobservable
		out.table[k] = v
	}
	return out
}

// Main implements dsu.App: accept one client at a time and serve lines.
func (s *Server) Main(env *dsu.Env) {
	if !env.Updating() {
		r := env.Sys(sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{Port, 0}})
		if !r.OK() {
			panic(fmt.Sprintf("tkv: bind: %v", r.Err))
		}
		s.listenFD = int(r.Ret)
	}
	var buf proto.LineBuffer
	for !env.Exiting() {
		if s.connFD < 0 {
			r := env.Sys(sysabi.Call{Op: sysabi.OpAccept, FD: s.listenFD})
			if !r.OK() {
				return
			}
			s.connFD = int(r.Ret)
			buf = proto.LineBuffer{}
		}
		if env.UpdatePoint("main_loop") == dsu.Exit {
			return
		}
		r := env.Sys(sysabi.Call{Op: sysabi.OpRead, FD: s.connFD, Buf: s.rbuf[:0], Args: [2]int64{1024, 0}})
		if !r.OK() || r.Ret == 0 {
			env.Sys(sysabi.Call{Op: sysabi.OpClose, FD: s.connFD})
			s.connFD = -1
			continue
		}
		buf.Feed(r.Data)
		for {
			line, ok := buf.Next()
			if !ok {
				break
			}
			reply := s.execute(line)
			env.Sys(sysabi.Call{Op: sysabi.OpWrite, FD: s.connFD, Buf: []byte(reply + "\r\n")})
		}
	}
}

// execute runs one command line. The tokens are views of line; a
// handler takes strings, copies of what it stores.
func (s *Server) execute(line []byte) string {
	s.Ops++
	s.args = proto.AppendFields(s.args[:0], line)
	args := s.args
	if len(args) == 0 {
		return "ERR bad command"
	}
	cmd, typed := args[0], []byte(nil)
	if i := bytes.IndexByte(cmd, '-'); i >= 0 {
		cmd, typed = cmd[:i], cmd[i+1:]
	}
	switch {
	case string(cmd) == "PUT" && len(typed) == 0 && len(args) == 3:
		if s.version == "v2" && s.strict {
			// The paper's Rule 2 scenario: v2-strict dropped plain PUT.
			return "ERR bad command"
		}
		typ := ""
		if s.version == "v2" {
			typ = "string" // outdated requests get the default type
		}
		s.table[string(args[1])] = entry{Val: string(args[2]), Type: typ}
		return "OK"
	case string(cmd) == "PUT" && len(typed) > 0 && len(args) == 3:
		if s.version != "v2" || !validType(typed) {
			return "ERR bad command"
		}
		s.table[string(args[1])] = entry{Val: string(args[2]), Type: string(typed)}
		return "OK"
	case string(cmd) == "GET" && len(args) == 2:
		e, ok := s.table[string(args[1])]
		if !ok {
			return "NOT-FOUND"
		}
		return "VAL " + e.Val
	case string(cmd) == "TYPE" && len(args) == 2:
		if s.version != "v2" {
			return "ERR bad command"
		}
		e, ok := s.table[string(args[1])]
		if !ok {
			return "NOT-FOUND"
		}
		return "TYPE " + e.Type
	default:
		return "ERR bad command"
	}
}

func validType(t []byte) bool {
	return string(t) == "string" || string(t) == "number" || string(t) == "date"
}

// Rules1 is the paper's Figure 4 Rule 1 (plus the analogous rule for the
// TYPE command): commands only the new version understands are routed to
// an invalid command on the follower, so the follower rejects them just
// as the old leader does, keeping the two states related by the state
// transformation (Figure 3).
var Rules1 = `
rule "rule1-typed-put" {
    match read(fd, s, n) where base(cmd(s)) == "PUT" && typ(cmd(s)) != "" {
        emit read(fd, "bad-cmd\r\n", 9);
    }
}
rule "rule1-type-cmd" {
    match read(fd, s, n) where cmd(s) == "TYPE" {
        emit read(fd, "bad-cmd\r\n", 9);
    }
}
`

// Rules2 is Figure 4's Rule 2: when the new version drops the plain PUT,
// outdated PUTs are rewritten to PUT-string for the follower.
var Rules2 = `
rule "rule2-put-to-put-string" {
    match read(fd, s, n) where cmd(s) == "PUT" && typ(cmd(s)) == "" {
        emit read(fd, replace(s, "PUT", "PUT-string"), n + 7);
    }
}
`

// Rules3 is Figure 4's Rule 3 for the updated-leader stage: PUT-string
// maps back to the old version's plain PUT. Other typed PUTs and TYPE
// have no mapping — using them terminates the outdated follower
// (§3.3.2).
var Rules3 = `
rule "rule3-put-string-to-put" {
    match read(fd, s, n) where cmd(s) == "PUT-string" {
        emit read(fd, replace(s, "PUT-string", "PUT"), n - 7);
    }
}
`

// UpdateOpts configures the v1→v2 update.
type UpdateOpts struct {
	// Strict makes v2 drop the plain PUT command, requiring Rule 2.
	Strict bool
	// UninitializedType injects the §2.4 bug: the transformer forgets to
	// set the new type field (instead of defaulting it to "string").
	UninitializedType bool
	// PerEntryXform is the per-entry transformation cost.
	PerEntryXform time.Duration
}

// Update builds the v1→v2 version descriptor with the Figure 4 rules.
func Update(opts UpdateOpts) *dsu.Version {
	perEntry := opts.PerEntryXform
	if perEntry == 0 {
		perEntry = 5 * time.Microsecond
	}
	fwdSrc := Rules1
	if opts.Strict {
		fwdSrc += Rules2
	}
	return &dsu.Version{
		Name: "v2",
		Xform: func(old dsu.App) (dsu.App, error) {
			o, ok := old.(*Server)
			if !ok {
				return nil, fmt.Errorf("tkv xform: unexpected app %T", old)
			}
			n := o.Fork().(*Server)
			n.version = "v2"
			n.strict = opts.Strict
			for k, e := range n.table { // maporder: ok — per-entry rewrite, order unobservable
				if opts.UninitializedType {
					e.Type = "" // the forgotten initialization (§2.4)
				} else {
					e.Type = "string"
				}
				n.table[k] = e
			}
			return n, nil
		},
		XformCost: func(old dsu.App) time.Duration {
			o, ok := old.(*Server)
			if !ok {
				return 0
			}
			return time.Duration(len(o.table)) * perEntry
		},
		Rules:        dsl.MustParse(fwdSrc),
		ReverseRules: dsl.MustParse(Rules3),
	}
}
