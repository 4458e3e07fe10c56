package apptest

import (
	"strings"
	"testing"
	"time"

	"mvedsua/internal/core"
	"mvedsua/internal/dsu"
	"mvedsua/internal/sim"
	"mvedsua/internal/sysabi"
)

// echoServer is a trivial dsu.App used to exercise the client helpers.
type echoServer struct {
	listenFD int
	connFD   int
}

func (a *echoServer) Version() string { return "v1" }
func (a *echoServer) Fork() dsu.App   { cp := *a; return &cp }
func (a *echoServer) Main(env *dsu.Env) {
	if !env.Updating() {
		r := env.Sys(sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{4242, 0}})
		a.listenFD = int(r.Ret)
		r = env.Sys(sysabi.Call{Op: sysabi.OpAccept, FD: a.listenFD})
		a.connFD = int(r.Ret)
	}
	for !env.Exiting() {
		r := env.Sys(sysabi.Call{Op: sysabi.OpRead, FD: a.connFD, Args: [2]int64{128, 0}})
		if !r.OK() || r.Ret == 0 {
			return
		}
		env.Sys(sysabi.Call{Op: sysabi.OpWrite, FD: a.connFD, Buf: r.Data})
		if env.UpdatePoint("loop") == dsu.Exit {
			return
		}
	}
}

func TestWorldRunFinishesOnFinish(t *testing.T) {
	w := NewWorld(core.Config{})
	w.C.Start(&echoServer{})
	var got string
	w.S.Go("client", func(tk *sim.Task) {
		c := Connect(w.K, tk, 4242)
		got = c.Do(tk, "hello")
		c.Close(tk)
		w.Finish()
	})
	if err := w.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != "hello\r\n" {
		t.Fatalf("echo = %q", got)
	}
	if !w.done {
		t.Fatal("Finish not recorded")
	}
}

func TestWorldRunTimesOutWithoutFinish(t *testing.T) {
	w := NewWorld(core.Config{})
	w.C.Start(&echoServer{})
	// No client ever calls Finish; the world must still drain at the
	// virtual deadline instead of hanging.
	start := time.Now()
	if err := w.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("Run took implausibly long in wall-clock time")
	}
}

func TestClientSendRecvUntil(t *testing.T) {
	w := NewWorld(core.Config{})
	w.C.Start(&echoServer{})
	w.S.Go("client", func(tk *sim.Task) {
		defer w.Finish()
		c := Connect(w.K, tk, 4242)
		defer c.Close(tk)
		c.Send(tk, "part1;")
		c.Send(tk, "part2;END")
		got := c.RecvUntil(tk, "END")
		if !strings.Contains(got, "part1;") || !strings.HasSuffix(got, "END") {
			t.Errorf("RecvUntil = %q", got)
		}
		if c.FD() <= 0 {
			t.Errorf("FD = %d", c.FD())
		}
	})
	if err := w.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestConnectPanicsOnDeadPort(t *testing.T) {
	w := NewWorld(core.Config{})
	w.S.OnCrash = func(sim.CrashInfo) {}
	crashed := false
	w.S.Go("client", func(tk *sim.Task) {
		defer func() {
			if recover() != nil {
				crashed = true
			}
			w.Finish()
		}()
		Connect(w.K, tk, 59999)
	})
	if err := w.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !crashed {
		t.Fatal("Connect to a dead port did not panic")
	}
}

// TestRecvUntilMarkerStraddlesReads: the server sends the marker split
// across bursts — all but its last byte in the first, over three bursts
// with a middle one shorter than the marker, one byte at a time at its
// start, or whole — then a tail. RecvUntil must find the marker in the
// read that completes it and return without reading the tail; DrainUntil,
// the same scan keeping nothing, must stop at the same read and count the
// same bytes; and a world client's transcript keeps every byte read as
// its step's reply.
func TestRecvUntilMarkerStraddlesReads(t *testing.T) {
	for _, bursts := range [][]string{
		{"150 data\r\n226 Transfer complet", "e\r\n", "tail"},
		{"150 data\r\n226 Tr", "ans", "fer complete\r\n", "tail"},
		{"150 ", "2", "2", "6 Transfer comp", "lete", "tail"},
		{"226 Transfer complete\r\n", "tail"},
	} {
		want := strings.Join(bursts[:len(bursts)-1], "")
		read := func(recv func(c *Client, tk *sim.Task)) (reads int) {
			w := NewWorld(core.Config{})
			w.S.Go("server", func(tk *sim.Task) {
				lfd := int(w.K.Invoke(tk, sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{21, 0}}).Ret)
				fd := int(w.K.Invoke(tk, sysabi.Call{Op: sysabi.OpAccept, FD: lfd}).Ret)
				for _, b := range bursts {
					w.K.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: []byte(b)})
					tk.Sleep(time.Millisecond)
				}
			})
			w.S.Go("client", func(tk *sim.Task) {
				defer w.Finish()
				c := w.Connect(tk, 21)
				before := w.K.Stats[sysabi.OpRead]
				recv(c, tk)
				reads = w.K.Stats[sysabi.OpRead] - before
			})
			if err := w.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if steps := w.Transcript(); len(steps) != 1 || steps[0].Reply != want {
				t.Errorf("%q: transcript %+v, want one step replying %q", bursts, steps, want)
			}
			return reads
		}
		var got string
		if reads := read(func(c *Client, tk *sim.Task) { got = c.RecvUntil(tk, "226 Transfer complete") }); got != want || reads != len(bursts)-1 {
			t.Errorf("RecvUntil = %q in %d reads, want %q in %d", got, reads, want, len(bursts)-1)
		}
		var n int
		if reads := read(func(c *Client, tk *sim.Task) { n = c.DrainUntil(tk, "226 Transfer complete") }); n != len(want) || reads != len(bursts)-1 {
			t.Errorf("DrainUntil = %d bytes in %d reads, want %d in %d", n, reads, len(want), len(bursts)-1)
		}
	}
}
