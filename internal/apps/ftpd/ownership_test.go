package ftpd

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mvedsua/internal/apptest"
	"mvedsua/internal/chaos"
	"mvedsua/internal/core"
	"mvedsua/internal/dsu"
	"mvedsua/internal/sim"
	"mvedsua/internal/sysabi"
	"mvedsua/internal/vos"
)

// fileOf returns n bytes that differ chunk to chunk, so a stale or
// overwritten chunk shows.
func fileOf(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = 'a' + byte(i/ChunkSize+i%7)%26
	}
	return b
}

// A transfer whose file read fails must not be reported as complete: the
// client sees 150, the chunks read so far, then 451. The fault hits both
// versions at the same read (they share the disk), so the follower takes
// the same path and nobody diverges.
func TestRetrReadFailureIs451(t *testing.T) {
	const okChunks = 2
	data := fileOf(5 * ChunkSize)
	for _, duo := range []bool{false, true} {
		t.Run(fmt.Sprintf("duo=%v", duo), func(t *testing.T) {
			plan := chaos.NewPlan(
				&chaos.Injection{Role: "leader", Op: sysabi.OpFRead, AfterCalls: okChunks + 1, Kind: chaos.KindErrno, Errno: sysabi.EFAULT},
				&chaos.Injection{Role: "follower", Op: sysabi.OpFRead, AfterCalls: okChunks + 1, Kind: chaos.KindErrno, Errno: sysabi.EFAULT},
			)
			w := apptest.NewWorld(core.Config{WrapDispatcher: plan.Wrap})
			w.K.WriteFile(Root+"/big.bin", data)
			w.C.Start(New(SpecFor("2.0.5")))
			w.S.Go("driver", func(tk *sim.Task) {
				defer w.Finish()
				c := login(w, tk)
				if duo {
					if !w.C.Update(Update("2.0.5", "2.0.6")) {
						t.Error("Update rejected")
						return
					}
					// The leader forks at its next update point, after this
					// command: the follower is there for the whole transfer.
					c.Do(tk, "NOOP")
					tk.Sleep(20 * time.Millisecond)
				}
				c.Send(tk, "RETR big.bin\r\n")
				got := c.RecvUntil(tk, "451 Failure reading local file.\r\n")
				want := "150 Opening ASCII mode data connection for big.bin.\r\n" +
					string(data[:okChunks*ChunkSize]) + "451 Failure reading local file.\r\n"
				if got != want {
					t.Errorf("transfer = %d bytes ending %q, want %d bytes ending in the 451",
						len(got), got[max(0, len(got)-40):], len(want))
				}
				// The file fd was closed and the session goes on.
				if got := c.Do(tk, "NOOP"); !strings.HasPrefix(got, "200 ") {
					t.Errorf("NOOP after the failed transfer = %q", got)
				}
				tk.Sleep(20 * time.Millisecond)
				c.Close(tk)
				tk.Sleep(20 * time.Millisecond)
				if n := w.K.OpenFDs(); n != 2 { // listener + epoll
					t.Errorf("%d fds open after the session, want 2", n)
				}
			})
			if err := w.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
			wantFired, wantStage := 1, core.StageSingleLeader
			if duo {
				wantFired, wantStage = 2, core.StageOutdatedLeader
			}
			if plan.Fired() != wantFired || w.C.Stage() != wantStage || len(w.C.Monitor().Divergences()) != 0 {
				t.Errorf("fired %d faults, stage %v, divergences %v", plan.Fired(), w.C.Stage(), w.C.Monitor().Divergences())
			}
		})
	}
}

// The same for an upload whose file write fails.
func TestStorWriteFailureIs451(t *testing.T) {
	plan := chaos.NewPlan(&chaos.Injection{Op: sysabi.OpFWrite, Kind: chaos.KindErrno, Errno: sysabi.ENOMEM})
	w := apptest.NewWorld(core.Config{WrapDispatcher: plan.Wrap})
	w.C.Start(New(SpecFor("2.0.5")))
	w.S.Go("driver", func(tk *sim.Task) {
		defer w.Finish()
		c := login(w, tk)
		if got := c.Do(tk, "STOR up.txt payload"); got != "451 Failure writing to local file.\r\n" {
			t.Errorf("failed STOR = %q", got)
		}
		if got := c.Do(tk, "STOR up.txt payload"); got != "226 Transfer complete.\r\n" {
			t.Errorf("STOR after the fault = %q", got)
		}
		c.Close(tk)
		tk.Sleep(20 * time.Millisecond)
		if n := w.K.OpenFDs(); n != 2 {
			t.Errorf("%d fds open after the session, want 2", n)
		}
	})
	if err := w.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestServerOwnsItsScratch: the leader and each replica overwrite the
// read buffer and the reply scratch as soon as a write returns — after a
// control line was fed to the session, after every reply, and after
// every chunk of a transfer went out — and nothing changes.
func TestServerOwnsItsScratch(t *testing.T) {
	data := fileOf(6*ChunkSize + 123)
	var read string
	err := apptest.CheckOwnership(
		func() dsu.App { return New(SpecFor("2.0.5")) },
		serverScratch,
		func(k *vos.Kernel) { k.WriteFile(Root+"/big.bin", data) },
		func(k *vos.Kernel, tk *sim.Task) string {
			var seen strings.Builder
			c := apptest.Connect(k, tk, Port)
			seen.WriteString(c.RecvUntil(tk, "\r\n"))
			for _, cmd := range []string{"USER anonymous", "PASS guest", "SYST", "TYPE I", "STOR up.txt some-payload", "PWD"} {
				seen.WriteString(c.Do(tk, cmd))
			}
			for i := 0; i < 3; i++ {
				c.Send(tk, "RETR big.bin\r\n")
				seen.WriteString(c.RecvUntil(tk, "226 Transfer complete.\r\n"))
				c.Send(tk, "RETR up.txt\r\n")
				seen.WriteString(c.RecvUntil(tk, "226 Transfer complete.\r\n"))
			}
			seen.WriteString(c.Do(tk, "QUIT"))
			read = seen.String()
			return read
		})
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(read, string(data)); n != 3 {
		t.Fatalf("the client received the file intact %d times, want 3", n)
	}
}

func serverScratch(app dsu.App, tid int) [][]byte {
	s := app.(*Server)
	return [][]byte{s.rbuf[:], s.out[:cap(s.out)]}
}

// TestForkSharesNoScratch pins what the test above relies on: Fork
// builds the copy field by field and leaves the reply scratch out.
func TestForkSharesNoScratch(t *testing.T) {
	w := apptest.NewWorld(core.Config{})
	s := New(SpecFor("2.0.5"))
	w.C.Start(s)
	w.S.Go("driver", func(tk *sim.Task) {
		defer w.Finish()
		c := login(w, tk)
		c.Do(tk, "TYPE I")
		c.Close(tk)
	})
	if err := w.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if cap(s.out) == 0 {
		t.Fatal("replying left no scratch behind")
	}
	f := s.Fork().(*Server)
	if f.out != nil {
		t.Errorf("fork carries the reply scratch: cap %d", cap(f.out))
	}
	if f.spec != s.spec || f.listenFD != s.listenFD || f.epollFD != s.epollFD {
		t.Errorf("fork lost the server: %+v", f.spec)
	}
}
