package memcache

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mvedsua/internal/apptest"
	"mvedsua/internal/dsu"
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

// TestWorkerCloneSharesNoScratch pins what the test above relies on for
// a forked follower: clone builds the copy field by field.
func TestWorkerCloneSharesNoScratch(t *testing.T) {
	w := &worker{conns: map[int]*mcConn{}, args: [][]byte{[]byte("get"), []byte("k")},
		replies: []reply{{fixed: replyEnd}}, value: []byte("VALUE k 0 1\r\nv\r\n")}
	if c := w.clone(); c.args != nil || c.replies != nil || c.value != nil {
		t.Errorf("clone carries scratch: tokens %q, replies %v, value %q", c.args, c.replies, c.value)
	}
}
