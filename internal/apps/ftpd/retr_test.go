package ftpd

import (
	"bytes"
	"testing"
	"time"

	"mvedsua/internal/dsu"
	"mvedsua/internal/mve"
	"mvedsua/internal/sim"
	"mvedsua/internal/sysabi"
	"mvedsua/internal/vos"
)

// retrRig is a logged-in 2.0.5 session under a single-leader monitor
// over a real kernel, with one client that repeats a RETR for ever; step
// serves exactly one transfer: the control line, the open, every fread
// and write, the close and the two replies.
type retrRig struct {
	s      *sim.Scheduler
	srv    *Server
	rt     *dsu.Runtime
	client *sim.Task
	bad    int // transfers that were not the expected bytes
}

// retrTick is the client's think time; RunFor of one tick is one
// transfer.
const retrTick = time.Microsecond

func newRetrRig(tb testing.TB, data []byte) *retrRig {
	tb.Helper()
	s := sim.New()
	k := vos.NewKernel(s)
	k.WriteFile(Root+"/bulk.bin", data)
	m := mve.New(k, 16, mve.Costs{})
	r := &retrRig{s: s, srv: New(SpecFor("2.0.5"))}
	r.rt = dsu.NewRuntime(s, r.srv, dsu.Config{Name: "leader", Dispatcher: m.StartSingleLeader("leader")})
	r.rt.Start()
	want := append(append([]byte("150 Opening ASCII mode data connection for bulk.bin.\r\n"), data...),
		"226 Transfer complete.\r\n"...)
	r.client = s.Go("client", func(tk *sim.Task) {
		fd := int(k.Invoke(tk, sysabi.Call{Op: sysabi.OpConnect, Args: [2]int64{Port, 0}}).Ret)
		buf := make([]byte, 0, 2*len(want))
		// recv reads until the reply ends in end, into buf.
		recv := func(end []byte) []byte {
			got := buf[:0]
			for !bytes.HasSuffix(got, end) {
				res := k.Invoke(tk, sysabi.Call{Op: sysabi.OpRead, FD: fd, Buf: got[len(got):], Args: [2]int64{int64(cap(got) - len(got)), 0}})
				if res.Ret <= 0 {
					break
				}
				got = got[:len(got)+len(res.Data)]
			}
			return got
		}
		recv([]byte("\r\n")) // banner
		for _, line := range []string{"USER anonymous\r\n", "PASS guest\r\n"} {
			k.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: []byte(line)})
			recv([]byte("\r\n"))
		}
		req, end := []byte("RETR bulk.bin\r\n"), []byte("226 Transfer complete.\r\n")
		for {
			tk.Sleep(retrTick)
			k.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: req})
			if !bytes.Equal(recv(end), want) {
				r.bad++
			}
		}
	})
	for i := 0; i < 8; i++ { // buffers and tables reach their steady size
		r.step(tb)
	}
	tb.Cleanup(func() {
		r.client.Kill()
		r.rt.KillAll()
		s.Run()
	})
	return r
}

func (r *retrRig) step(tb testing.TB) {
	if err := r.s.RunFor(retrTick); err != nil {
		tb.Fatalf("RunFor: %v", err)
	}
}

// TestRetrAllocatesNothing pins a transfer's allocation budget without
// timing anything: the control line is executed as a view, the path is
// cut from the server's arena, the kernel carves the open file's record
// from a chunk, every chunk is read into the server's buffer and every
// reply built in its scratch, so a whole RETR — open, freads, writes,
// close — allocates nothing.
func TestRetrAllocatesNothing(t *testing.T) {
	r := newRetrRig(t, fileOf(3*ChunkSize+100))
	ops := r.srv.Ops
	const runs = 100
	if got := testing.AllocsPerRun(runs, func() { r.step(t) }); got != 0 {
		t.Errorf("%v allocations per transfer, want 0", got)
	}
	// AllocsPerRun makes one warm-up call on top of runs.
	if n := r.srv.Ops - ops; n != runs+1 || r.bad != 0 {
		t.Errorf("served %d transfers in %d steps, %d wrong", n, runs+1, r.bad)
	}
}
