package proto

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// The parsers' fuzz targets. Each seed corpus is testdata/fuzz/<target>,
// replayed by plain `go test`.

// FuzzFields: AppendFields splits exactly like strings.Fields — ASCII
// lines on its own fast path, anything else through the fallback — and
// leaves what dst already held alone.
func FuzzFields(f *testing.F) {
	f.Fuzz(func(t *testing.T, line []byte) {
		want := strings.Fields(string(line))
		if got := strs(AppendFields(nil, line)); !slices.Equal(got, want) {
			t.Fatalf("AppendFields(nil, %q) = %q, want %q", line, got, want)
		}
		// Into a reused slice, behind a token that must survive.
		got := strs(AppendFields(append(make([][]byte, 0, 8), []byte("kept")), line))
		if got[0] != "kept" || !slices.Equal(got[1:], want) {
			t.Fatalf("AppendFields([kept], %q) = %q, want kept + %q", line, got, want)
		}
	})
}

func strs(fields [][]byte) []string {
	out := make([]string, len(fields))
	for i, f := range fields {
		out[i] = string(f)
	}
	return out
}

// FuzzLineBuffer: however a stream is cut into Feed calls, Next yields
// the lines of the whole stream, each less its \n and at most one \r
// before it, and what follows the last newline stays buffered. cuts[i]
// is the length of the i-th piece.
func FuzzLineBuffer(f *testing.F) {
	f.Fuzz(func(t *testing.T, stream, cuts []byte) {
		var want []string
		rest := stream
		for {
			i := bytes.IndexByte(rest, '\n')
			if i < 0 {
				break
			}
			want = append(want, strings.TrimSuffix(string(rest[:i]), "\r"))
			rest = rest[i+1:]
		}
		var b LineBuffer
		var got []string
		drain := func() {
			for {
				line, ok := b.Next()
				if !ok {
					return
				}
				got = append(got, string(line))
			}
		}
		fed := stream
		for _, c := range cuts {
			n := min(int(c), len(fed))
			b.Feed(fed[:n])
			fed = fed[n:]
			drain()
		}
		b.Feed(fed)
		drain()
		if !slices.Equal(got, want) {
			t.Fatalf("lines of %q cut at %v = %q, want %q", stream, cuts, got, want)
		}
		if b.buf.Len() != len(rest) {
			t.Fatalf("%d bytes left buffered, want %d", b.buf.Len(), len(rest))
		}
	})
}

// FuzzAppendBulk: AppendBulk, AppendInteger and AppendMcValue produce
// what the fmt-based encoders they replaced produced, after whatever dst
// holds, and Bulk is the same bytes.
func FuzzAppendBulk(f *testing.F) {
	f.Fuzz(func(t *testing.T, prefix []byte, s string, n int64) {
		want := fmt.Sprintf("%s$%d\r\n%s\r\n", prefix, len(s), s)
		if got := AppendBulk(append([]byte(nil), prefix...), s); string(got) != want {
			t.Fatalf("AppendBulk(%q, %q) = %q, want %q", prefix, s, got, want)
		}
		if got := Bulk(s); string(got) != want[len(prefix):] {
			t.Fatalf("Bulk(%q) = %q, want %q", s, got, want[len(prefix):])
		}
		want = fmt.Sprintf("%s:%d\r\n", prefix, n)
		if got := AppendInteger(append([]byte(nil), prefix...), n); string(got) != want {
			t.Fatalf("AppendInteger(%q, %d) = %q, want %q", prefix, n, got, want)
		}
		// The prefix doubles as the key.
		want = fmt.Sprintf("%sVALUE %s %d %d\r\n%s\r\n", prefix, prefix, int(n), len(s), s)
		if got := AppendMcValue(append([]byte(nil), prefix...), prefix, int(n), s); string(got) != want {
			t.Fatalf("AppendMcValue(%q, %q, %d, %q) = %q, want %q", prefix, prefix, int(n), s, got, want)
		}
	})
}
