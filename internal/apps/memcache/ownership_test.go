package memcache

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mvedsua/internal/apps/libevent"
	"mvedsua/internal/apptest"
	"mvedsua/internal/dsu"
	"mvedsua/internal/proto"
	"mvedsua/internal/sim"
	"mvedsua/internal/vos"
)

// TestWorkersOwnTheirScratch: four connections keep the four worker
// threads of the leader and of each replica busy at once, and every
// worker overwrites its read buffer and the VALUE block it encoded as
// soon as a write returns. Scratch is per worker — a sibling may be
// parked mid-request on the full ring — and a two-key get encodes its
// second block only after the first is written, so nothing changes.
func TestWorkersOwnTheirScratch(t *testing.T) {
	const conns, rounds = 4, 60
	err := apptest.CheckOwnership(
		func() dsu.App { return New(SpecFor("1.2.3", conns)) },
		func(app dsu.App, tid int) [][]byte {
			if tid == 0 {
				return nil // the main thread only accepts
			}
			w := app.(*Server).workers[tid-1]
			return [][]byte{w.rbuf[:], w.value}
		},
		nil,
		func(k *vos.Kernel, tk *sim.Task) string {
			var cs []*apptest.Client
			for i := 0; i < conns; i++ {
				cs = append(cs, apptest.Connect(k, tk, Port))
			}
			// Let the main thread hand the connections out first: a worker
			// blocked in an unbounded epoll_wait is not woken by the
			// epoll_ctl that adds an fd which is already readable.
			tk.Sleep(time.Millisecond)
			var read strings.Builder
			for r := 0; r < rounds; r++ {
				// Send on every connection before reading any reply, so
				// the workers run side by side.
				for i, c := range cs {
					if r%3 == 0 {
						v := strings.Repeat(string(rune('a'+(r+i)%26)), 1+(7*r+i)%80)
						c.Send(tk, fmt.Sprintf("set k%d %d 0 %d\r\n%s\r\n", i, r, len(v), v))
					} else {
						c.Send(tk, fmt.Sprintf("get k%d k%d\r\n", i, (i+1)%conns))
					}
				}
				for _, c := range cs {
					if r%3 == 0 {
						read.WriteString(c.RecvUntil(tk, "STORED\r\n"))
					} else {
						read.WriteString(c.RecvUntil(tk, "END\r\n"))
					}
				}
			}
			for _, c := range cs {
				c.Close(tk)
			}
			return read.String()
		})
	if err != nil {
		t.Fatal(err)
	}
}

// feed executes text as one line from a buffer it then overwrites, as
// the connection's next read would, and returns the fixed replies.
func feed(s *Server, w *worker, c *mcConn, text string) string {
	line := []byte(text)
	var out []byte
	for _, r := range s.executeLine(nil, w, c, line) {
		out = append(out, r.fixed...)
	}
	for i := range line {
		line[i] = '#'
	}
	return string(out)
}

// TestWorkerCloneSharesNoScratch pins what the test above relies on for
// a forked follower: clone builds the copy field by field. A pending
// header's key is the connection's scratch too, and the server's arena is
// its own: after the parent stored an item, a set's header and data
// arrive in separate reads with a fork between them, and the parent
// stores its data and reads its next header, of the same length, into
// its connection's scratch before the fork's data arrives. Each side
// stores its own data under the header's key, and the fork never sees
// the parent's next key.
func TestWorkerCloneSharesNoScratch(t *testing.T) {
	cw := &worker{conns: map[int]*mcConn{}, args: [][]byte{[]byte("get"), []byte("k")},
		replies: []reply{{fixed: replyEnd}}, value: []byte("VALUE k 0 1\r\nv\r\n")}
	if c := cw.clone(); c.args != nil || c.replies != nil || c.value != nil {
		t.Errorf("clone carries scratch: tokens %q, replies %v, value %q", c.args, c.replies, c.value)
	}

	s := New(SpecFor("1.2.3", 1))
	s.mainBase = libevent.NewBase()
	s.workers = []*worker{{base: libevent.NewBase(), conns: map[int]*mcConn{}}}
	w, c := s.workers[0], &mcConn{in: &proto.LineBuffer{}}
	w.conns[5] = c
	feed(s, w, c, "set old 0 0 1")
	feed(s, w, c, "x")
	feed(s, w, c, "set key 7 0 6")
	f := s.Fork().(*Server)
	fw := f.workers[0]
	if got := feed(s, w, c, "parent"); got != "STORED\r\n" {
		t.Fatalf("parent's data: %q", got)
	}
	feed(s, w, c, "set zzz 0 0 1")
	if got := feed(f, fw, fw.conns[5], "childs"); got != "STORED\r\n" {
		t.Fatalf("fork's data: %q", got)
	}
	if it := s.db["key"]; it != (item{flags: 7, data: "parent"}) {
		t.Errorf("parent stored %+v", it)
	}
	if it := f.db["key"]; it != (item{flags: 7, data: "childs"}) || len(f.db) != 2 {
		t.Errorf("fork stored %+v, %d items", it, len(f.db))
	}
}

// TestStoredStringsOutliveTheRequest: what a storage command keeps — the
// key, the data, an appended or prepended block, a counter — is
// copied out of the lines, each overwritten after it is executed.
func TestStoredStringsOutliveTheRequest(t *testing.T) {
	s := New(SpecFor("1.2.3", 1))
	w, c := &worker{conns: map[int]*mcConn{}}, &mcConn{in: &proto.LineBuffer{}}
	for _, l := range []string{
		"set a 1 0 2", "aa", "add b 2 0 2", "bb", "append a 0 0 3", "+++", "prepend b 0 0 1", "<",
		"set n 0 0 1", "9", "incr n 3", "replace n 5 0 3", "777", "set a 0 0 1", "A",
	} {
		feed(s, w, c, l)
	}
	want := map[string]item{"a": {data: "A"}, "b": {flags: 2, data: "<bb"}, "n": {flags: 5, data: "777"}}
	if fmt.Sprint(s.db) != fmt.Sprint(want) {
		t.Errorf("db = %+v, want %+v", s.db, want)
	}
	feed(s, w, c, "append a 0 0 2")
	feed(s, w, c, "!!")
	if it := s.db["a"]; it.data != "A!!" {
		t.Errorf("a = %+v", it)
	}
}
