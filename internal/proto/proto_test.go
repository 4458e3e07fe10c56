package proto

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestLineBufferSplitsLines(t *testing.T) {
	var b LineBuffer
	b.Feed([]byte("GET a\r\nSET b"))
	line, ok := b.Next()
	if !ok || string(line) != "GET a" {
		t.Fatalf("first = %q %v", line, ok)
	}
	if _, ok := b.Next(); ok {
		t.Fatal("partial line should not pop")
	}
	b.Feed([]byte(" 1\r\n"))
	line, ok = b.Next()
	if !ok || string(line) != "SET b 1" {
		t.Fatalf("second = %q %v", line, ok)
	}
}

func TestLineBufferBareNewline(t *testing.T) {
	var b LineBuffer
	b.Feed([]byte("PING\n"))
	line, ok := b.Next()
	if !ok || string(line) != "PING" {
		t.Fatalf("line = %q %v", line, ok)
	}
}

// A line's last byte may itself be a \r: only the one before the \n is
// part of the terminator.
func TestLineBufferStripsOneCarriageReturn(t *testing.T) {
	var b LineBuffer
	b.Feed([]byte("a\r\r\n\r\n\r\r\r\n"))
	for _, want := range []string{"a\r", "", "\r\r"} {
		if line, ok := b.Next(); !ok || string(line) != want {
			t.Fatalf("line = %q %v, want %q", line, ok, want)
		}
	}
}

func TestLineBufferCloneIsIndependent(t *testing.T) {
	var b LineBuffer
	b.Feed([]byte("partial"))
	c := b.Clone()
	c.Feed([]byte(" done\r\n"))
	if _, ok := b.Next(); ok {
		t.Fatal("original saw the clone's data")
	}
	line, ok := c.Next()
	if !ok || string(line) != "partial done" {
		t.Fatalf("clone = %q %v", line, ok)
	}
}

func TestLineBufferManyLinesProperty(t *testing.T) {
	f := func(raw []string) bool {
		var clean []string
		for _, s := range raw {
			s = strings.Map(func(r rune) rune {
				if r == '\r' || r == '\n' {
					return '_'
				}
				return r
			}, s)
			clean = append(clean, s)
		}
		var b LineBuffer
		for _, s := range clean {
			b.Feed([]byte(s + "\r\n"))
		}
		for _, want := range clean {
			got, ok := b.Next()
			if !ok || string(got) != want {
				return false
			}
		}
		_, ok := b.Next()
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRESPEncoders(t *testing.T) {
	cases := []struct {
		got  []byte
		want string
	}{
		{SimpleString("OK"), "+OK\r\n"},
		{ErrorReply("no such key"), "-ERR no such key\r\n"},
		{AppendInteger(nil, 42), ":42\r\n"},
		{Bulk("hello"), "$5\r\nhello\r\n"},
		{Bulk(""), "$0\r\n\r\n"},
		{NullBulk(), "$-1\r\n"},
	}
	for _, tc := range cases {
		if string(tc.got) != tc.want {
			t.Errorf("got %q, want %q", tc.got, tc.want)
		}
	}
}

func TestRESPArray(t *testing.T) {
	a, b := "x", "yz"
	got := Array([]*string{&a, nil, &b})
	want := "*3\r\n$1\r\nx\r\n$-1\r\n$2\r\nyz\r\n"
	if string(got) != want {
		t.Fatalf("Array = %q, want %q", got, want)
	}
	if string(Array(nil)) != "*0\r\n" {
		t.Fatalf("empty Array = %q", Array(nil))
	}
}

func TestMemcachedEncoders(t *testing.T) {
	if got := AppendMcValue([]byte("kept"), []byte("k"), 7, "abc"); string(got) != "keptVALUE k 7 3\r\nabc\r\n" {
		t.Errorf("AppendMcValue = %q", got)
	}
	if string(McEnd()) != "END\r\n" || string(McStored()) != "STORED\r\n" ||
		string(McNotStored()) != "NOT_STORED\r\n" || string(McDeleted()) != "DELETED\r\n" ||
		string(McNotFound()) != "NOT_FOUND\r\n" || string(McError()) != "ERROR\r\n" {
		t.Error("memcached fixed replies mismatch")
	}
	if string(McClientError("bad data chunk")) != "CLIENT_ERROR bad data chunk\r\n" {
		t.Errorf("McClientError = %q", McClientError("bad data chunk"))
	}
}

func TestFTPReply(t *testing.T) {
	if string(FTPReply(220, "Service ready")) != "220 Service ready\r\n" {
		t.Errorf("FTPReply = %q", FTPReply(220, "Service ready"))
	}
	if string(FTPUnknown()) != "500 Unknown command\r\n" {
		t.Errorf("FTPUnknown = %q", FTPUnknown())
	}
}

func TestParseFTPCommand(t *testing.T) {
	cases := []struct{ in, verb, arg string }{
		{"USER anonymous", "USER", "anonymous"},
		{"quit", "QUIT", ""},
		{"retr  file.txt ", "RETR", "file.txt"},
		{"STOU", "STOU", ""},
		{"  noop  ", "NOOP", ""},
	}
	for _, tc := range cases {
		v, a := ParseFTPCommand(tc.in)
		if v != tc.verb || a != tc.arg {
			t.Errorf("ParseFTPCommand(%q) = %q %q, want %q %q", tc.in, v, a, tc.verb, tc.arg)
		}
	}
}

func TestFields(t *testing.T) {
	got := AppendFields(nil, []byte("SET  key   value"))
	if len(got) != 3 || string(got[0]) != "SET" || string(got[1]) != "key" || string(got[2]) != "value" {
		t.Fatalf("Fields = %v", got)
	}
}

func TestWrongTypeReply(t *testing.T) {
	if !strings.HasPrefix(string(WrongTypeReply()), "-WRONGTYPE") {
		t.Fatalf("WrongTypeReply = %q", WrongTypeReply())
	}
}
