package kvstore

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"mvedsua/internal/apptest"
	"mvedsua/internal/core"
	"mvedsua/internal/dsu"
	"mvedsua/internal/mve"
	"mvedsua/internal/sim"
	"mvedsua/internal/vos"
)

// TestServeLoopAllocations pins the request path's allocation budget
// without timing anything: one iteration of the serve loop — epoll_wait,
// read, parse, execute, clock, write — allocates nothing. The line is a
// view, epoll_wait's Ready list the kernel's, and the key is looked up
// without a copy, so a GET hit allocates nothing, and a SET of a key the
// store holds copies its value into the store's arena, whose chunk
// refills AllocsPerRun amortises to 0.
func TestServeLoopAllocations(t *testing.T) {
	for _, tc := range []struct {
		name, cmd, want string
		allocs          float64
	}{
		{"GET-hit", floorGet, floorGetReply, 0},
		{"SET", floorSet, floorSetReply, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newFloorRig(t, tc.cmd, tc.want)
			ops := r.srv.Ops
			const runs = 100
			if got := testing.AllocsPerRun(runs, func() { r.step(t) }); got > tc.allocs {
				t.Errorf("%v allocations per request, want at most %v", got, tc.allocs)
			}
			// AllocsPerRun makes one warm-up call on top of runs.
			if n := r.srv.Ops - ops; n != runs+1 || r.bad != 0 {
				t.Errorf("served %d requests in %d steps, %d wrong replies", n, runs+1, r.bad)
			}
		})
	}
}

// TestStoredStringsOutliveTheRequest: what a command keeps — a key the
// store did not hold, a value, an appended tail, a hash field and its
// value, a counter — is copied out of the line, which is overwritten
// after every command.
func TestStoredStringsOutliveTheRequest(t *testing.T) {
	s := New(SpecFor("2.0.3", false))
	line := make([]byte, 0, 64)
	for _, cmd := range []string{
		"SET k1 value1", "GETSET k2 value2", "APPEND k1 -tail", "APPEND k3 fresh",
		"HSET h field v", "INCR n", "INCR n", "SET k4 x", "SET k4 value4",
	} {
		line = append(line[:0], cmd...)
		s.execute(line)
		for i := range line {
			line[i] = '#'
		}
	}
	for k, want := range map[string]string{"k1": "value1-tail", "k2": "value2", "k3": "fresh", "n": "2", "k4": "value4"} {
		if e := s.db.get(k); e == nil || e.str != want {
			t.Errorf("%s = %+v, want %q", k, e, want)
		}
	}
	if e := s.db.get("h"); e == nil || len(e.hash) != 1 || e.hash["field"] != "v" {
		t.Errorf("h = %+v, want field=v", e)
	}
	var keys []string
	s.db.each(func(k string, _ *entry) { keys = append(keys, k) })
	sort.Strings(keys)
	if fmt.Sprint(keys) != "[h k1 k2 k3 k4 n]" {
		t.Errorf("keys %q", keys)
	}
}

// TestServerOwnsItsScratch: the leader and each replica overwrite their
// read buffer and reply scratch as soon as a write returns, and nothing
// changes — nothing downstream of Sys still refers to them.
func TestServerOwnsItsScratch(t *testing.T) {
	err := apptest.CheckOwnership(
		func() dsu.App { return New(SpecFor("2.0.0", false)) },
		serverScratch, nil, playCommands(ownershipCommands(200)))
	if err != nil {
		t.Fatal(err)
	}
}

// ownershipCommands is a mix of n commands whose replies run from five
// bytes to a hundred, so pooled buffers of several size classes are in
// flight at once.
func ownershipCommands(n int) []string {
	var cmds []string
	for i := 0; i < n; i++ {
		switch i % 5 {
		case 0:
			cmds = append(cmds, fmt.Sprintf("SET k%d %s", i%7, strings.Repeat(string(rune('a'+i%26)), 1+i%90)))
		case 3:
			cmds = append(cmds, fmt.Sprintf("INCR n%d", i%3))
		case 4:
			cmds = append(cmds, fmt.Sprintf("GET missing%d", i))
		default:
			cmds = append(cmds, fmt.Sprintf("GET k%d", i%7))
		}
	}
	return cmds
}

func serverScratch(app dsu.App, tid int) [][]byte {
	s := app.(*Server)
	return [][]byte{s.rbuf[:], s.reply}
}

// playCommands is the driver that sends cmds over one connection and
// returns every reply.
func playCommands(cmds []string) func(k *vos.Kernel, tk *sim.Task) string {
	return func(k *vos.Kernel, tk *sim.Task) string {
		var read strings.Builder
		c := apptest.Connect(k, tk, Port)
		for _, cmd := range cmds {
			read.WriteString(c.Do(tk, cmd))
		}
		c.Close(tk)
		return read.String()
	}
}

// TestRuleHitsOwnTheirPayloads: the same, with a rule firing on every
// command — the replicas run the next (or previous) version, which orders
// its clock read and its reply the other way round, and each validates a
// stream the shipped rules rewrite: the two pairs that carry rules, in the
// outdated-leader stage (forward rules) and the updated-leader stage
// (reverse rules), 10 000 commands each. On 2.0.3 <-> 2.1.0 the
// three-event rule for the new commands also binds every command's read
// and reply, and misses. EXPIRE, TTL and PERSIST stay out of the mix: the
// versions answer them with different bytes, by design.
func TestRuleHitsOwnTheirPayloads(t *testing.T) {
	const perRun = 2500 // CheckOwnership makes four runs
	cmds := ownershipCommands(perRun)
	for _, tc := range []struct {
		from, to string
		reverse  bool
	}{
		{"2.0.0", "2.0.1", false},
		{"2.0.0", "2.0.1", true},
		{"2.0.3", "2.1.0", false},
		{"2.0.3", "2.1.0", true},
	} {
		leader, replica := tc.from, tc.to
		rules, rev := RulesFor(tc.from, tc.to)
		if tc.reverse {
			leader, replica, rules = tc.to, tc.from, rev
		}
		t.Run(fmt.Sprintf("leader-%s/replicas-%s", leader, replica), func(t *testing.T) {
			err := apptest.CheckOwnershipAcross(
				func() dsu.App { return New(SpecFor(leader, false)) },
				func() dsu.App { return New(SpecFor(replica, false)) },
				rules, serverScratch, nil, playCommands(cmds))
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestParkedLeaderKeepsItsReply: on a four-entry ring with a slow
// follower the leader parks inside write — after the kernel ran, before
// the ring copied the reply — while the follower forked from it is
// serving. The follower encodes replies into scratch of its own, so the
// leader records the bytes it wrote.
func TestParkedLeaderKeepsItsReply(t *testing.T) {
	cfg := core.Config{BufferEntries: 4, Costs: mve.Costs{Replay: 20 * time.Microsecond}}
	w := serve(t, SpecFor("2.0.1", false), cfg, func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
		for i := 0; i < 8; i++ {
			c.Do(tk, fmt.Sprintf("SET k%d %s", i, strings.Repeat(string(rune('a'+i)), 10+i)))
		}
		if !w.C.Update(Update("2.0.1", "2.0.2", UpdateOpts{})) {
			t.Fatal("Update rejected")
		}
		for i := 0; i < 400; i++ {
			// Pipelined, so the leader runs ahead of the follower.
			c.Send(tk, fmt.Sprintf("GET k%d\r\nGET k%d\r\n", i%8, (i+3)%8))
			want := fmt.Sprintf("$%d\r\n%s\r\n", 10+i%8, strings.Repeat(string(rune('a'+i%8)), 10+i%8)) +
				fmt.Sprintf("$%d\r\n%s\r\n", 10+(i+3)%8, strings.Repeat(string(rune('a'+(i+3)%8)), 10+(i+3)%8))
			got := ""
			for len(got) < len(want) {
				got += c.Recv(tk)
			}
			if got != want {
				t.Fatalf("reply %d = %q, want %q", i, got, want)
			}
		}
		tk.Sleep(50 * time.Millisecond)
		if w.C.Stage() != core.StageOutdatedLeader {
			t.Errorf("stage = %v; divergences: %v", w.C.Stage(), w.C.Monitor().Divergences())
		}
	})
	if divs := w.C.Monitor().Divergences(); len(divs) != 0 {
		t.Errorf("diverged: %v", divs[0])
	}
	if w.C.Monitor().Buffer().ProducerBlocked == 0 {
		t.Error("the leader never parked on the full ring: the test exercises nothing")
	}
}

// TestForkSharesNoScratch pins what the two tests above rely on: Fork
// builds the copy field by field and leaves the scratch out.
func TestForkSharesNoScratch(t *testing.T) {
	s := New(SpecFor("2.0.0", false))
	s.execute([]byte("SET k v"))
	s.execute([]byte("GET k"))
	if cap(s.args) == 0 || cap(s.reply) == 0 {
		t.Fatalf("executing left no scratch behind: args cap %d, reply cap %d", cap(s.args), cap(s.reply))
	}
	f := s.Fork().(*Server)
	if f.args != nil || f.reply != nil {
		t.Errorf("fork carries scratch: args cap %d, reply cap %d", cap(f.args), cap(f.reply))
	}
	if e := f.db.get("k"); e == nil || e.str != "v" {
		t.Errorf("fork lost the store: %+v", e)
	}
}
