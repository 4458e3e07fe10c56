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
// worker overwrites its read buffer as soon as a write returns. Scratch
// is per worker — a sibling may be parked mid-request on the full ring —
// so nothing changes.
func TestWorkersOwnTheirScratch(t *testing.T) {
	const conns, rounds = 4, 60
	err := apptest.CheckOwnership(
		func() dsu.App { return New(SpecFor("1.2.3", conns)) },
		func(app dsu.App, tid int) [][]byte {
			if tid == 0 {
				return nil // the main thread only accepts
			}
			return [][]byte{app.(*Server).workers[tid-1].rbuf[:]}
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
	w := &worker{conns: map[int]*mcConn{}, args: []string{"get", "k"}}
	if c := w.clone(); c.args != nil {
		t.Errorf("clone carries the token scratch: %q", c.args)
	}
}
