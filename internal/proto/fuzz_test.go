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
	f.Fuzz(func(t *testing.T, line string) {
		want := strings.Fields(line)
		if got := AppendFields(nil, line); !slices.Equal(got, want) {
			t.Fatalf("AppendFields(nil, %q) = %q, want %q", line, got, want)
		}
		// Into a reused slice, behind a token that must survive.
		got := AppendFields(append(make([]string, 0, 8), "kept"), line)
		if got[0] != "kept" || !slices.Equal(got[1:], want) {
			t.Fatalf("AppendFields([kept], %q) = %q, want kept + %q", line, got, want)
		}
	})
}

// FuzzLineBuffer: however a stream is cut into Feed calls, Next yields
// the lines of the whole stream, and what follows the last newline stays
// buffered. cuts[i] is the length of the i-th piece.
func FuzzLineBuffer(f *testing.F) {
	f.Fuzz(func(t *testing.T, stream, cuts []byte) {
		var want []string
		rest := stream
		for {
			i := bytes.IndexByte(rest, '\n')
			if i < 0 {
				break
			}
			want = append(want, strings.TrimRight(string(rest[:i]), "\r"))
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
				got = append(got, line)
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

// FuzzAppendBulk: AppendBulk and AppendInteger produce what the
// fmt-based encoders they replaced produced, after whatever dst holds,
// and Bulk is the same bytes.
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
	})
}
