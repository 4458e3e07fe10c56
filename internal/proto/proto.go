// Package proto provides the wire-protocol building blocks shared by the
// reproduction's servers and benchmark clients: CRLF line buffering,
// RESP-style reply encoding (kvstore), memcached text-protocol replies,
// and FTP status lines.
package proto

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// LineBuffer accumulates stream bytes and yields complete lines
// terminated by \n (with optional \r). Servers feed it read() payloads
// and pop commands as they complete.
type LineBuffer struct {
	buf bytes.Buffer
}

// Feed appends stream data.
func (b *LineBuffer) Feed(data []byte) { b.buf.Write(data) }

// Next pops one complete line without its terminator — the \n and at
// most one \r before it — reporting whether one was available. The line
// is a view of the buffer's storage, valid until the next Feed or Next:
// a caller copies what it keeps.
func (b *LineBuffer) Next() ([]byte, bool) {
	data := b.buf.Bytes()
	i := bytes.IndexByte(data, '\n')
	if i < 0 {
		return nil, false
	}
	b.buf.Next(i + 1)
	if i > 0 && data[i-1] == '\r' {
		i--
	}
	return data[:i:i], true
}

// Clone deep-copies the buffer (for application forks).
func (b *LineBuffer) Clone() *LineBuffer {
	out := &LineBuffer{}
	out.buf.Write(b.buf.Bytes())
	return out
}

// AppendFields appends the whitespace-separated tokens of a command line
// to dst — bytes.Fields into a slice the caller reuses. The tokens are
// views of line. Lines with a byte outside ASCII go through bytes.Fields
// itself, so Unicode white space splits as it does there.
func AppendFields(dst [][]byte, line []byte) [][]byte {
	base, start := len(dst), -1
	for i := 0; i < len(line); i++ {
		switch c := line[i]; {
		case c >= 0x80:
			return append(dst[:base], bytes.Fields(line)...)
		case c == ' ' || '\t' <= c && c <= '\r':
			if start >= 0 {
				dst = append(dst, line[start:i:i])
				start = -1
			}
		case start < 0:
			start = i
		}
	}
	if start >= 0 {
		dst = append(dst, line[start:len(line):len(line)])
	}
	return dst
}

// RESP-style encoders (the kvstore's reply format).

// SimpleString encodes "+s\r\n".
func SimpleString(s string) []byte { return []byte("+" + s + "\r\n") }

// ErrorReply encodes "-ERR msg\r\n".
func ErrorReply(msg string) []byte { return []byte("-ERR " + msg + "\r\n") }

// WrongTypeReply is the canonical wrong-type error.
func WrongTypeReply() []byte {
	return []byte("-WRONGTYPE Operation against a key holding the wrong kind of value\r\n")
}

// AppendInteger appends ":n\r\n" to dst.
func AppendInteger(dst []byte, n int64) []byte {
	dst = append(dst, ':')
	dst = strconv.AppendInt(dst, n, 10)
	return append(dst, '\r', '\n')
}

// Bulk encodes "$len\r\ndata\r\n".
func Bulk(s string) []byte { return AppendBulk(nil, s) }

// AppendBulk appends "$len\r\ndata\r\n" to dst.
func AppendBulk(dst []byte, s string) []byte {
	dst = append(dst, '$')
	dst = strconv.AppendInt(dst, int64(len(s)), 10)
	dst = append(dst, '\r', '\n')
	dst = append(dst, s...)
	return append(dst, '\r', '\n')
}

// NullBulk encodes the RESP null bulk "$-1\r\n".
func NullBulk() []byte { return []byte("$-1\r\n") }

// Array encodes a RESP array of bulk strings; nil entries become nulls.
func Array(items []*string) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "*%d\r\n", len(items))
	for _, it := range items {
		if it == nil {
			b.Write(NullBulk())
		} else {
			b.Write(Bulk(*it))
		}
	}
	return b.Bytes()
}

// Memcached text protocol replies.

// AppendMcValue appends one VALUE block, without the END terminator that
// follows a get's last one, to dst.
func AppendMcValue(dst, key []byte, flags int, data string) []byte {
	dst = append(append(dst, "VALUE "...), key...)
	dst = strconv.AppendInt(append(dst, ' '), int64(flags), 10)
	dst = strconv.AppendInt(append(dst, ' '), int64(len(data)), 10)
	dst = append(append(dst, '\r', '\n'), data...)
	return append(dst, '\r', '\n')
}

// McEnd encodes the bare miss reply "END\r\n".
func McEnd() []byte { return []byte("END\r\n") }

// McStored encodes "STORED\r\n".
func McStored() []byte { return []byte("STORED\r\n") }

// McNotStored encodes "NOT_STORED\r\n".
func McNotStored() []byte { return []byte("NOT_STORED\r\n") }

// McDeleted encodes "DELETED\r\n".
func McDeleted() []byte { return []byte("DELETED\r\n") }

// McNotFound encodes "NOT_FOUND\r\n".
func McNotFound() []byte { return []byte("NOT_FOUND\r\n") }

// McError encodes the generic "ERROR\r\n".
func McError() []byte { return []byte("ERROR\r\n") }

// McClientError encodes "CLIENT_ERROR msg\r\n".
func McClientError(msg string) []byte { return []byte("CLIENT_ERROR " + msg + "\r\n") }

// FTP control-channel replies.

// FTPReply encodes "code text\r\n".
func FTPReply(code int, text string) []byte {
	return []byte(fmt.Sprintf("%d %s\r\n", code, text))
}

// FTPUnknown is the 500 reply for unrecognized commands.
func FTPUnknown() []byte { return FTPReply(500, "Unknown command") }

// ParseFTPCommand splits an FTP command line into verb and argument. The
// verb is appended to dst upper-cased, as strings.ToUpper would do it;
// the argument, trimmed of white space, is a view of line.
func ParseFTPCommand(dst, line []byte) (verb, arg []byte) {
	line = bytes.TrimSpace(line)
	verb = line
	if i := bytes.IndexByte(line, ' '); i >= 0 {
		verb, arg = line[:i], bytes.TrimSpace(line[i+1:])
	}
	base := len(dst)
	for _, c := range verb {
		if c >= utf8.RuneSelf {
			return append(dst[:base], strings.ToUpper(string(verb))...), arg
		}
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst, arg
}

// arenaChunk is the size of the chunks an Arena cuts strings from.
const arenaChunk = 2048

// Arena copies the request bytes a server keeps — a key, a value, a
// path — into chunks of its own and hands out strings cut from them, so
// that keeping a short string costs a share of a chunk rather than an
// allocation. Its rules:
//
//   - a chunk's bytes are written once, before the string that holds
//     them is handed out, and never again: an arena only appends;
//   - a fork's child never writes its parent's chunk: it starts with a
//     fresh arena (the zero Arena), so parent and child may run on
//     different OS threads while both read strings cut from the parent's
//     chunks;
//   - a chunk lives as long as any string cut from it: those strings are
//     what keep it, and nothing is freed or reused by hand;
//   - a string over a quarter chunk is allocated on its own, so a large
//     value neither retires a chunk early nor needs a larger one.
//
// A chunk is a strings.Builder, which gives the first three rules
// without unsafe; its copy check also panics if a used arena is copied
// by value and then written. A string is cut in three steps — Grow, then
// Write and WriteString, then Cut — or in one, by Copy. The zero Arena is
// ready to use.
type Arena struct {
	chunk strings.Builder
	start int             // where in chunk the string being cut begins
	own   strings.Builder // the string being cut, when it is over a quarter chunk
	long  bool            // whether the string being cut is in own
}

// Grow starts a string of n bytes, to be written by Write and
// WriteString and returned by Cut.
func (a *Arena) Grow(n int) {
	a.long = n > arenaChunk/4
	if a.long {
		a.own = strings.Builder{}
		a.own.Grow(n)
		return
	}
	if a.chunk.Cap()-a.chunk.Len() < n {
		a.chunk = strings.Builder{}
		a.chunk.Grow(arenaChunk)
	}
	a.start = a.chunk.Len()
}

// builder is where the string being cut is written.
func (a *Arena) builder() *strings.Builder {
	if a.long {
		return &a.own
	}
	return &a.chunk
}

// Write appends b to the string being cut.
func (a *Arena) Write(b []byte) { a.builder().Write(b) }

// WriteString appends s to the string being cut.
func (a *Arena) WriteString(s string) { a.builder().WriteString(s) }

// Cut returns the string written since Grow.
func (a *Arena) Cut() string {
	if a.long {
		return a.own.String()
	}
	return a.chunk.String()[a.start:]
}

// Copy returns a string holding b's bytes.
func (a *Arena) Copy(b []byte) string {
	a.Grow(len(b))
	a.Write(b)
	return a.Cut()
}
