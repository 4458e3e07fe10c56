package kvstore

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// Fork isolation as a differential oracle: whatever one side of a fork
// does to its store, the other side answers a fixed probe script exactly
// as a twin that was never forked does. This is Shen & Bazzi's "rollback
// is indistinguishable from never updating" at the granularity where one
// write that missed its unshare would break it — every path that writes
// an entry, the ones that look like reads included.

const (
	isoNow   = 2 * time.Second  // when mutations and probes run
	isoLater = 60 * time.Second // past every deadline the bases set
)

func run(s *Server, now time.Duration, cmds ...string) *Server {
	for _, c := range cmds {
		s.executeAt(now, []byte(c))
	}
	return s
}

// isoFill is the content both bases start from: strings, hashes, a
// counter.
func isoFill(s *Server) *Server {
	s.Preload(40)
	return run(s, 0, "HSET h f1 v1", "HSET h f2 v2", "HSET htmp f v", "SET ctr 41", "SET tmp soon", "SET tmp2 later")
}

func mustXform(t *testing.T, s *Server, to string, opts UpdateOpts) *Server {
	t.Helper()
	opts.PerEntryXform = time.Microsecond
	app, err := Update(s.Version(), to, opts).Xform(s)
	if err != nil {
		t.Fatal(err)
	}
	return app.(*Server)
}

// expiryBase is on 2.1.0 with deadlines set on a string and a hash.
// Settled, it owes no migration: a command's own write is the only one
// it makes. Lazy, it is in the middle of one: reads write too, and a
// touch unshares the entry before the command's write gets to it.
func expiryBase(lazy bool) func(*testing.T) *Server {
	return func(t *testing.T) *Server {
		s := mustXform(t, isoFill(New(SpecFor("2.0.3", false))), "2.1.0", UpdateOpts{Lazy: lazy})
		return run(s, time.Second, "EXPIRE tmp 10", "EXPIRE htmp 10", "EXPIRE tmp2 1000")
	}
}

// hopBase is on 2.0.2 in the middle of a lazy migration, with two more
// versions to go.
func hopBase(t *testing.T) *Server {
	return mustXform(t, isoFill(New(SpecFor("2.0.1", false))), "2.0.2", UpdateOpts{Lazy: true})
}

// probe is the fixed script; the transcript also shows, after every
// reply, the lazy migration's books.
func probe(s *Server) string {
	var out strings.Builder
	for _, c := range []string{
		"DBSIZE", "KEYS",
		"GET key:00000000", "GET key:00000001", "GET key:00000002", "GET key:00000003", "GET key:00000004",
		"TTL key:00000005", "GET key:00000006", "EXISTS key:00000007", "TYPE key:00000008",
		"GET ctr", "GET newctr", "GET fresh", "GET newapp", "GET absent",
		"GET tmp", "TTL tmp", "TTL tmp2", "HGET htmp f", "TTL htmp",
		"HGET h f1", "HGET h f2", "HMGET h f1 f2 f9", "TYPE h", "HGET newhash f",
		"DBSIZE",
	} {
		fmt.Fprintf(&out, "%s -> %q", c, s.executeAt(isoNow, []byte(c)))
		if s.lazy != nil {
			fmt.Fprintf(&out, " [pending %d cursor %d steps %d]", s.lazy.pending, s.lazy.cursor, s.lazy.chargeSteps)
		}
		out.WriteByte('\n')
	}
	return out.String()
}

func TestForkIsolation(t *testing.T) {
	cmds := func(now time.Duration, lines ...string) func(*testing.T, *Server) *Server {
		return func(_ *testing.T, s *Server) *Server { return run(s, now, lines...) }
	}
	type base struct {
		name  string
		build func(*testing.T) *Server
	}
	settled, lazy, hop := base{"settled", expiryBase(false)}, base{"lazy", expiryBase(true)}, base{"hop", hopBase}
	both := []base{settled, lazy}
	for _, tc := range []struct {
		name  string
		bases []base
		// mutate changes s's state and returns the instance that holds
		// the result (s itself unless the state moved).
		mutate func(*testing.T, *Server) *Server
	}{
		{"SET-overwrite", both, cmds(isoNow, "SET key:00000001 x", "SET h plain", "SET tmp renewed")},
		{"SET-new", both, cmds(isoNow, "SET fresh v")},
		{"DEL", both, cmds(isoNow, "DEL key:00000002 h tmp absent")},
		{"INCR", both, cmds(isoNow, "INCR ctr", "INCR newctr")},
		{"HSET", both, cmds(isoNow, "HSET h f1 changed", "HSET h f9 added", "HSET newhash f v")},
		{"APPEND", both, cmds(isoNow, "APPEND key:00000003 ++", "APPEND newapp x")},
		{"GETSET", both, cmds(isoNow, "GETSET key:00000004 swapped", "GETSET fresh v")},
		{"EXPIRE", both, cmds(isoNow, "EXPIRE key:00000005 100", "EXPIRE tmp2 1", "EXPIRE htmp 500")},
		{"PERSIST", both, cmds(isoNow, "PERSIST tmp", "PERSIST htmp")},
		{"expiry-by-read", both, cmds(isoLater, "GET tmp", "HGET htmp f")},
		{"expiry-by-write", both, cmds(isoLater, "APPEND tmp x", "HSET htmp f2 v2")},
		{"expiry-by-DEL", both, cmds(isoLater, "DEL tmp htmp")},
		{"lazy-touch-by-reads", []base{lazy}, cmds(isoNow, "GET key:00000006", "EXISTS key:00000007", "TYPE key:00000008",
			"TTL key:00000005", "HGET h f1", "HMGET htmp f")},
		{"SweepLazy", []base{lazy}, func(_ *testing.T, s *Server) *Server { s.SweepLazy(1000); return s }},
		{"SweepLazy-partial", []base{lazy}, func(_ *testing.T, s *Server) *Server { s.SweepLazy(7); return s }},
		{"FLUSHDB", both, cmds(isoNow, "FLUSHDB", "SET key:00000001 after")},
		{"AdoptState", both, func(_ *testing.T, s *Server) *Server {
			n := New(s.spec)
			n.AdoptState(s)
			return run(n, isoNow, "SET key:00000001 adopted", "HSET h f1 adopted", "DEL ctr")
		}},
		{"eager-hop-after-lazy-hop", []base{hop}, func(t *testing.T, s *Server) *Server {
			return mustXform(t, s, "2.0.3", UpdateOpts{})
		}},
		{"lazy-hop-after-lazy-hop", []base{hop}, func(t *testing.T, s *Server) *Server {
			return run(mustXform(t, s, "2.0.3", UpdateOpts{Lazy: true}), 0, "GET key:00000000", "HGET h f1")
		}},
		{"forgotten-table", []base{hop}, func(t *testing.T, s *Server) *Server {
			return run(mustXform(t, s, "2.0.3", UpdateOpts{ForgetTable: true}), 0, "SET key:00000001 x")
		}},
	} {
		for _, b := range tc.bases {
			t.Run(tc.name+"/"+b.name, func(t *testing.T) {
				build := b.build
				want := probe(build(t))

				parent := build(t)
				mutated := tc.mutate(t, parent.Fork().(*Server))
				if got := probe(parent); got != want {
					t.Errorf("the fork's writes reached its parent:\n%s", diffLines(want, got))
				}
				if probe(mutated) == want {
					t.Error("the probe script cannot see this mutation: the case checks nothing")
				}

				parent = build(t)
				child := parent.Fork().(*Server)
				tc.mutate(t, parent)
				if got := probe(child); got != want {
					t.Errorf("the parent's writes reached its fork:\n%s", diffLines(want, got))
				}
			})
		}
	}
}

// diffLines shows the transcript lines that differ.
func diffLines(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var out strings.Builder
	for i := range w {
		if i >= len(g) || w[i] != g[i] {
			fmt.Fprintf(&out, "  twin: %s\n  got:  %s\n", w[i], g[min(i, len(g)-1)])
		}
	}
	return out.String()
}
