package kvstore

import (
	"strings"
	"testing"
	"time"

	"mvedsua/internal/apptest"
	"mvedsua/internal/core"
	"mvedsua/internal/sim"
)

// The 2.1.0 extension: expiry semantics driven by the virtual clock.
func TestExpireAndTTL(t *testing.T) {
	serve(t, SpecFor("2.1.0", false), core.Config{}, func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
		cases := []struct{ cmd, want string }{
			{"SET k v", "+OK\r\n"},
			{"TTL k", ":-1\r\n"},
			{"EXPIRE k 10", ":1\r\n"},
			{"TTL k", ":10\r\n"},
			{"EXPIRE missing 5", ":0\r\n"},
			{"TTL missing", ":-2\r\n"},
			{"PERSIST k", ":1\r\n"},
			{"TTL k", ":-1\r\n"},
			{"PERSIST k", ":0\r\n"},
			{"EXPIRE k banana", "-ERR value is not an integer or out of range\r\n"},
		}
		for _, tc := range cases {
			if got := c.Do(tk, tc.cmd); got != tc.want {
				t.Errorf("%s = %q, want %q", tc.cmd, got, tc.want)
			}
		}
		// Expiry actually fires as virtual time passes.
		c.Do(tk, "EXPIRE k 2")
		tk.Sleep(time.Second)
		if got := c.Do(tk, "EXISTS k"); got != ":1\r\n" {
			t.Errorf("EXISTS before deadline = %q", got)
		}
		if got := c.Do(tk, "TTL k"); got != ":1\r\n" {
			t.Errorf("TTL mid-way = %q", got)
		}
		tk.Sleep(1100 * time.Millisecond)
		if got := c.Do(tk, "GET k"); got != "$-1\r\n" {
			t.Errorf("GET after expiry = %q", got)
		}
		if got := c.Do(tk, "TTL k"); got != ":-2\r\n" {
			t.Errorf("TTL after expiry = %q", got)
		}
	})
}

func TestExpireGatedBeforeV210(t *testing.T) {
	serve(t, SpecFor("2.0.3", false), core.Config{}, func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
		for _, cmd := range []string{"EXPIRE k 5", "TTL k", "PERSIST k"} {
			if got := c.Do(tk, cmd); !strings.HasPrefix(got, "-ERR unknown command") {
				t.Errorf("%s = %q", cmd, got)
			}
		}
	})
}

// The extension update 2.0.3 -> 2.1.0 under MVEDSUA: the changed
// clock/write order is reconciled by one rule; the new commands are
// redirected while the old version leads; after promotion, expiry works
// and time-dependent reads stay consistent because the follower replays
// the leader's clock.
func TestUpdate203To210UnderMVEDSUA(t *testing.T) {
	v := Update("2.0.3", "2.1.0", UpdateOpts{PerEntryXform: time.Microsecond})
	serve(t, SpecFor("2.0.3", false), core.Config{}, func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
		c.Do(tk, "SET durable value")
		w.C.Update(v)
		for i := 0; i < 5; i++ {
			c.Do(tk, "INCR n")
			tk.Sleep(10 * time.Millisecond)
		}
		if w.C.Stage() != core.StageOutdatedLeader {
			t.Fatalf("stage = %v; %v", w.C.Stage(), w.C.Monitor().Divergences())
		}
		// New commands rejected under old semantics; the redirect rule
		// keeps the follower in sync.
		if got := c.Do(tk, "EXPIRE durable 100"); !strings.HasPrefix(got, "-ERR unknown command 'EXPIRE'") {
			t.Errorf("EXPIRE while old leads = %q", got)
		}
		if got := c.Do(tk, "TTL durable"); !strings.HasPrefix(got, "-ERR unknown command 'TTL'") {
			t.Errorf("TTL while old leads = %q", got)
		}
		tk.Sleep(30 * time.Millisecond)
		if len(w.C.Monitor().Divergences()) != 0 {
			t.Fatalf("redirect rules failed: %v", w.C.Monitor().Divergences())
		}
		w.C.Promote()
		for i := 0; i < 5; i++ {
			c.Do(tk, "INCR n")
			tk.Sleep(10 * time.Millisecond)
		}
		if w.C.Stage() != core.StageUpdatedLeader {
			t.Fatalf("stage after promote = %v; %v", w.C.Stage(), w.C.Monitor().Divergences())
		}
		// TTL against the new leader is tolerated on the old follower
		// (it mutates nothing).
		if got := c.Do(tk, "TTL durable"); got != ":-1\r\n" {
			t.Errorf("TTL after promote = %q", got)
		}
		tk.Sleep(30 * time.Millisecond)
		if w.C.Stage() != core.StageUpdatedLeader {
			t.Fatalf("TTL tolerate failed: %v", w.C.Monitor().Divergences())
		}
		w.C.Commit()
		// Now the full expiry flow on the committed version.
		c.Do(tk, "EXPIRE durable 1")
		tk.Sleep(1200 * time.Millisecond)
		if got := c.Do(tk, "GET durable"); got != "$-1\r\n" {
			t.Errorf("GET after expiry = %q", got)
		}
	})
}

// EXPIRE after promotion mutates state the old version cannot mirror:
// once the expiry becomes visible, the outdated follower diverges and is
// terminated — §3.3.2's "no possible mapping" outcome, observed on a
// time-dependent command.
func TestExpireAfterPromotionTerminatesOldVersion(t *testing.T) {
	v := Update("2.0.3", "2.1.0", UpdateOpts{PerEntryXform: time.Microsecond})
	serve(t, SpecFor("2.0.3", false), core.Config{}, func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
		c.Do(tk, "SET doomed value")
		w.C.Update(v)
		for i := 0; i < 4; i++ {
			c.Do(tk, "INCR n")
			tk.Sleep(10 * time.Millisecond)
		}
		w.C.Promote()
		for i := 0; i < 4; i++ {
			c.Do(tk, "INCR n")
			tk.Sleep(10 * time.Millisecond)
		}
		if w.C.Stage() != core.StageUpdatedLeader {
			t.Fatalf("stage = %v; %v", w.C.Stage(), w.C.Monitor().Divergences())
		}
		// EXPIRE mutates only the new version's state; the tolerate rule
		// masks the command itself...
		if got := c.Do(tk, "EXPIRE doomed 1"); got != ":1\r\n" {
			t.Errorf("EXPIRE = %q", got)
		}
		tk.Sleep(1200 * time.Millisecond)
		// ...but the expiry-visible GET diverges (new: null; old: value)
		// and the outdated follower is terminated, committing the update.
		if got := c.Do(tk, "GET doomed"); got != "$-1\r\n" {
			t.Errorf("GET after expiry = %q", got)
		}
		tk.Sleep(50 * time.Millisecond)
		if w.C.Stage() != core.StageSingleLeader {
			t.Fatalf("stage = %v, want committed single leader", w.C.Stage())
		}
		if got := w.C.LeaderRuntime().App().Version(); got != "2.1.0" {
			t.Fatalf("leader = %s", got)
		}
	})
}

// Determinism of time-dependent state across the duo: with the follower
// replaying the leader's clock, a TTL boundary read agrees exactly even
// though the two processes run at different points in wall time.
func TestExpiryConsistentDuringValidation(t *testing.T) {
	// Build the duo by updating 2.0.3 -> 2.1.0, then verify that plain
	// traffic with time gaps between commands does not diverge: every
	// clock result the leader records is replayed to the follower.
	u := Update("2.0.3", "2.1.0", UpdateOpts{PerEntryXform: time.Microsecond})
	serve(t, SpecFor("2.0.3", false), core.Config{}, func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
		w.C.Update(u)
		for i := 0; i < 4; i++ {
			c.Do(tk, "INCR n")
			tk.Sleep(10 * time.Millisecond)
		}
		if w.C.Stage() != core.StageOutdatedLeader {
			t.Fatalf("stage = %v; %v", w.C.Stage(), w.C.Monitor().Divergences())
		}
		// Plain traffic with sleeps: clock results differ per command,
		// and every one must replay identically.
		for i := 0; i < 6; i++ {
			c.Do(tk, "SET t v")
			tk.Sleep(7 * time.Millisecond)
			c.Do(tk, "GET t")
			tk.Sleep(3 * time.Millisecond)
		}
		if len(w.C.Monitor().Divergences()) != 0 {
			t.Fatalf("clock replay diverged: %v", w.C.Monitor().Divergences())
		}
	})
}

// Every command sees an expired key as gone, not only GET/EXISTS/TTL:
// APPEND, GETSET, HSET, HGET, HMGET and DEL used to read the table
// directly and answered from the dead entry.
func TestExpiredKeyIsGoneForEveryCommand(t *testing.T) {
	serve(t, SpecFor("2.1.0", false), core.Config{}, func(w *apptest.World, tk *sim.Task, c *apptest.Client) {
		for _, tc := range []struct{ setup, cmd, want string }{
			{"SET k hello", "APPEND k x", ":1\r\n"},
			{"SET k hello", "GETSET k y", "$-1\r\n"},
			{"HSET k f old", "HSET k f new", ":1\r\n"},
			{"HSET k f old", "HGET k f", "$-1\r\n"},
			{"HSET k f old", "HMGET k f g", "*2\r\n$-1\r\n$-1\r\n"},
			{"SET k hello", "HSET k f v", ":1\r\n"}, // not WRONGTYPE: the string is gone
			{"SET k hello", "DEL k", ":0\r\n"},
			{"SET k hello", "GET k", "$-1\r\n"},
			{"SET k hello", "EXISTS k", ":0\r\n"},
			{"SET k hello", "TTL k", ":-2\r\n"},
		} {
			c.Do(tk, "DEL k")
			c.Do(tk, tc.setup)
			if got := c.Do(tk, "EXPIRE k 1"); got != ":1\r\n" {
				t.Fatalf("EXPIRE after %s = %q", tc.setup, got)
			}
			tk.Sleep(5 * time.Second)
			if got := c.Do(tk, tc.cmd); got != tc.want {
				t.Errorf("%s · EXPIRE k 1 · 5 s · %s = %q, want %q", tc.setup, tc.cmd, got, tc.want)
			}
		}
		// What the writers left behind is a fresh key with no deadline.
		c.Do(tk, "DEL k")
		c.Do(tk, "SET k hello")
		c.Do(tk, "EXPIRE k 1")
		tk.Sleep(5 * time.Second)
		c.Do(tk, "APPEND k x")
		if got := c.Do(tk, "GET k") + c.Do(tk, "TTL k"); got != "$1\r\nx\r\n:-1\r\n" {
			t.Errorf("after APPEND to an expired key: GET k, TTL k = %q", got)
		}
	})
}
