package vos

import (
	"testing"
	"time"

	"mvedsua/internal/sim"
	"mvedsua/internal/sysabi"
)

// pair returns the two ends of a fresh connection on port.
func pair(k *Kernel, tk *sim.Task, port int64) (client, server int) {
	lfd := int(k.Invoke(tk, sysabi.Call{Op: sysabi.OpSocket, Args: [2]int64{port, 0}}).Ret)
	client = int(k.Invoke(tk, sysabi.Call{Op: sysabi.OpConnect, Args: [2]int64{port, 0}}).Ret)
	server = int(k.Invoke(tk, sysabi.Call{Op: sysabi.OpAccept, FD: lfd}).Ret)
	return client, server
}

func write(k *Kernel, tk *sim.Task, fd int, s string) {
	if r := k.Invoke(tk, sysabi.Call{Op: sysabi.OpWrite, FD: fd, Buf: []byte(s)}); !r.OK() {
		panic("write: " + r.Err.Error())
	}
}

// lend is a read of at most max bytes that offers no buffer.
func lend(k *Kernel, tk *sim.Task, fd int, op sysabi.Op, max int64) []byte {
	return k.Invoke(tk, sysabi.Call{Op: op, FD: fd, Args: [2]int64{max, 0}}).Data
}

// TestLentViewLivesUntilTheNextRead: a view a bufferless read was lent
// keeps its bytes while the peer writes — into the drained inbox, which
// starts over in its spare array, and past its capacity — and while other
// tasks run, up to the holder's next read of the fd.
func TestLentViewLivesUntilTheNextRead(t *testing.T) {
	s := sim.New()
	k := NewKernel(s)
	var cfd, sfd int
	stage := 0 // what the holder is waiting for the peer to write over
	await := func(tk *sim.Task, n int) {
		for stage < n {
			tk.Sleep(100 * time.Microsecond)
		}
	}
	s.Go("holder", func(tk *sim.Task) {
		cfd, sfd = pair(k, tk, 1)
		write(k, tk, cfd, "alpha")
		drained := lend(k, tk, sfd, sysabi.OpRead, 64)
		stage = 1
		tk.Sleep(time.Millisecond) // the peer writes, other tasks run
		if string(drained) != "alpha" {
			t.Errorf("a view of a drained inbox reads %q after the peer's writes, want alpha", drained)
		}
		if got := string(lend(k, tk, sfd, sysabi.OpRead, 4)); got != "BRAV" {
			t.Errorf("next read = %q, want BRAV", got)
		}
		part := lend(k, tk, sfd, sysabi.OpRead, 4)
		stage = 2
		tk.Sleep(time.Millisecond)
		if string(part) != "O!ch" {
			t.Errorf("a view of part of the inbox reads %q after the peer filled it past its capacity, want O!ch", part)
		}
	})
	s.Go("peer", func(tk *sim.Task) {
		await(tk, 1)
		write(k, tk, cfd, "BRAVO!")
		write(k, tk, cfd, "charlie")
		await(tk, 2)
		for i := 0; i < 64; i++ {
			write(k, tk, cfd, "0123456789abcdef")
		}
	})
	s.Go("bystander", func(tk *sim.Task) {
		c, srv := pair(k, tk, 2)
		for i := 0; i < 8; i++ {
			write(k, tk, c, "noise")
			lend(k, tk, srv, sysabi.OpRead, 64)
			tk.Yield()
		}
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestHolderAppendLeavesKernelBytes: a lent view is capacity-clipped, so
// the holder's append to it copies instead of writing over the unread
// bytes behind it, in an inbox and in a file.
func TestHolderAppendLeavesKernelBytes(t *testing.T) {
	run(t, func(k *Kernel, tk *sim.Task) {
		cfd, sfd := pair(k, tk, 1)
		write(k, tk, cfd, "abcdefgh")
		v := lend(k, tk, sfd, sysabi.OpRead, 4)
		v = append(v, "ZZZZ"...)
		if got := string(lend(k, tk, sfd, sysabi.OpRead, 64)); got != "efgh" || string(v) != "abcdZZZZ" {
			t.Errorf("after the holder appended to its view (%q), the inbox reads %q, want efgh", v, got)
		}

		k.WriteFile("/f", []byte("abcdefgh"))
		fd := int(k.Invoke(tk, sysabi.Call{Op: sysabi.OpOpen, Path: "/f"}).Ret)
		v = lend(k, tk, fd, sysabi.OpFRead, 4)
		v = append(v, "ZZZZ"...)
		if got := string(lend(k, tk, fd, sysabi.OpFRead, 64)); got != "efgh" || string(v) != "abcdZZZZ" {
			t.Errorf("after the holder appended to its view (%q), the file reads %q, want efgh", v, got)
		}
	})
}

// TestFReadViewSurvivesFWriteAndTruncation: an fwrite over bytes a
// bufferless fread lent copies the file's array first, and a truncation
// or WriteFile replaces it, so the view keeps what was read while every
// later read sees the new contents.
func TestFReadViewSurvivesFWriteAndTruncation(t *testing.T) {
	run(t, func(k *Kernel, tk *sim.Task) {
		open := func(flags int64) int {
			return int(k.Invoke(tk, sysabi.Call{Op: sysabi.OpOpen, Path: "/f", Args: [2]int64{flags, 0}}).Ret)
		}
		fwrite := func(fd int, s string) {
			k.Invoke(tk, sysabi.Call{Op: sysabi.OpFWrite, FD: fd, Buf: []byte(s)})
		}
		// Two writers at offset 0: the second writes over the first's bytes.
		w1, w2 := open(sysabi.OpenWrite), open(sysabi.OpenWrite)
		fwrite(w1, "0123456789")
		view := lend(k, tk, open(sysabi.OpenRead), sysabi.OpFRead, 6)
		fwrite(w2, "XXXX")
		if got := string(lend(k, tk, open(sysabi.OpenRead), sysabi.OpFRead, 64)); string(view) != "012345" || got != "XXXX456789" {
			t.Errorf("after an fwrite over lent bytes: view %q (want 012345), file %q (want XXXX456789)", view, got)
		}
		fwrite(w2, "YY") // over bytes the read above was lent
		if got := string(lend(k, tk, open(sysabi.OpenRead), sysabi.OpFRead, 64)); string(view) != "012345" || got != "XXXXYY6789" {
			t.Errorf("after a second fwrite: view %q (want 012345), file %q (want XXXXYY6789)", view, got)
		}

		view = lend(k, tk, open(sysabi.OpenRead), sysabi.OpFRead, 64)
		fwrite(open(sysabi.OpenWrite), "new")
		k.WriteFile("/f", []byte("replaced"))
		if string(view) != "XXXXYY6789" {
			t.Errorf("after a truncation and WriteFile the view reads %q, want XXXXYY6789", view)
		}
	})
}
