package kvstore

import (
	"fmt"
	"time"

	"mvedsua/internal/dsl"
	"mvedsua/internal/dsu"
)

// DefaultPerEntryXform is the virtual time the state transformation
// spends per store entry. Calibrated so the Figure 7 setup (1M entries)
// transforms in ≈6.2s, matching the paper's footnote 11.
const DefaultPerEntryXform = 6200 * time.Nanosecond

// LazyInstallCost is the constant pause a lazy update charges at
// install time (swap the spec, bump the generation, snapshot the
// lagging keys) — independent of store size, which is the point.
const LazyInstallCost = 50 * time.Microsecond

// UpdateOpts injects the fault classes of §6.2 into an update.
type UpdateOpts struct {
	// BugHMGET makes the new version carry revision 7fb16bac (crash on
	// HMGET against a wrong-typed key) — the "error in the new code".
	BugHMGET bool
	// BreakXform makes the state transformation return an error — the
	// "error in the state transformation" (crashes the updating
	// process).
	BreakXform bool
	// ForgetTable makes the transformation "forget" to copy the store,
	// the §2.4 example bug: the update succeeds but later GETs miss,
	// which MVEDSUA catches as a divergence.
	ForgetTable bool
	// PerEntryXform overrides the per-entry transformation cost
	// (DefaultPerEntryXform when zero).
	PerEntryXform time.Duration
	// Lazy switches the update to per-entry lazy state transformation:
	// install costs LazyInstallCost regardless of store size, and each
	// entry pays its per-entry cost on first access (charged to the
	// touching request) or when the background sweep reaches it.
	Lazy bool
}

// stage-specific rule sets for the one version pair whose syscall
// sequence changed: 2.0.0 issues clock-then-write, 2.0.1 write-then-clock
// (§5.2: "2.0.1 reverses the order of two system calls when handling
// client commands"). One rule forward, one reverse — matching the paper's
// "a DSL rule for 2.0.0 → 2.0.1".
var (
	rules200to201 = dsl.MustParse(`
// Leader 2.0.0 records [clock, write]; follower 2.0.1 issues
// [write, clock] for the same command.
rule "stats-clock-order" {
    match clock(ts), write(fd, s, n) {
        emit write(fd, s, n), clock(ts);
    }
}
`)
	rules201to200 = dsl.MustParse(`
// Reverse direction for the updated-leader stage: leader 2.0.1 records
// [write, clock]; follower 2.0.0 issues [clock, write].
rule "stats-clock-order-rev" {
    match write(fd, s, n), clock(ts) {
        emit clock(ts), write(fd, s, n);
    }
}
`)
)

// Rules for the extension pair 2.0.3 → 2.1.0: the new version samples
// the clock before executing (it needs "now" for expiry), so the
// per-command order flips from [write, clock] to [clock, write]; and
// EXPIRE/TTL/PERSIST are new commands, redirected to an invalid command
// on the follower in the Figure 4 Rule 1 style — here rewriting the
// whole three-event command window so the echoed error text matches.
var (
	rules203to210 = dsl.MustParse(`
// New commands: the old leader rejects them; deliver the equivalent
// rejected exchange to the new follower.
rule "expire-redirect" {
    match read(fd, s, n), write(fd2, r, m), clock(ts)
        where (cmd(s) == "EXPIRE" || cmd(s) == "TTL" || cmd(s) == "PERSIST")
              && prefix(r, "-ERR unknown") {
        emit read(fd, "bad-cmd\r\n", 9),
             clock(ts),
             write(fd2, "-ERR unknown command 'bad-cmd'\r\n", 32);
    }
}
// All other commands: same work, swapped clock/write order.
rule "clock-before-execute" {
    match write(fd, s, n), clock(ts) {
        emit clock(ts), write(fd, s, n);
    }
}
`)
	rules210to203 = dsl.MustParse(`
// New commands issued to the new leader: the old follower sees the
// equivalent rejected exchange. EXPIRE mutates new-version state with
// no old-version counterpart, so a later expiry-visible read will
// diverge and terminate the outdated follower (§3.3.2) — TTL and
// PERSIST-of-nothing are safe.
rule "expire-tolerate-rev" {
    match read(fd, s, n), clock(ts), write(fd2, r, m)
        where cmd(s) == "EXPIRE" || cmd(s) == "TTL" || cmd(s) == "PERSIST" {
        emit read(fd, "bad-cmd\r\n", 9),
             write(fd2, "-ERR unknown command 'bad-cmd'\r\n", 32),
             clock(ts);
    }
}
rule "clock-before-execute-rev" {
    match clock(ts), write(fd, s, n) {
        emit write(fd, s, n), clock(ts);
    }
}
`)
)

// RulesFor returns the forward and reverse rule sets for an update
// between two adjacent versions (nil when no rules are needed). The
// counts reproduce the paper's §5.2: one rule for 2.0.0→2.0.1, none for
// the other paper pairs; the extension pair 2.0.3→2.1.0 needs two.
func RulesFor(from, to string) (forward, reverse *dsl.RuleSet) {
	switch {
	case from == "2.0.0" && to == "2.0.1":
		return rules200to201, rules201to200
	case from == "2.0.3" && to == "2.1.0":
		return rules203to210, rules210to203
	}
	return nil, nil
}

// Update builds the dsu.Version descriptor for from→to.
func Update(from, to string, opts UpdateOpts) *dsu.Version {
	idx := func(v string) int {
		for i, name := range Versions {
			if name == v {
				return i
			}
		}
		return -1
	}
	fi, ti := idx(from), idx(to)
	if fi < 0 || ti < 0 || ti != fi+1 {
		panic(fmt.Sprintf("kvstore: unsupported update %s -> %s", from, to))
	}
	perEntry := opts.PerEntryXform
	if perEntry == 0 {
		perEntry = DefaultPerEntryXform
	}
	fwd, rev := RulesFor(from, to)
	return &dsu.Version{
		Name: to,
		Xform: func(old dsu.App) (dsu.App, error) {
			if opts.BreakXform {
				return nil, fmt.Errorf("xform %s->%s: freed LibEvent-style state still referenced", from, to)
			}
			o, ok := old.(*Server)
			if !ok {
				return nil, fmt.Errorf("xform %s->%s: unexpected app %T", from, to, old)
			}
			n := o.Fork().(*Server)
			n.spec = SpecFor(to, opts.BugHMGET)
			if opts.ForgetTable {
				// The §2.4 bug: the transformer forgets to carry the
				// table over; the new version starts with an empty
				// store while believing it updated correctly.
				n.db = store{}
			}
			if opts.Lazy {
				n.beginLazyMigration(perEntry)
			} else {
				// An eager transformation rewrites the whole heap, so
				// it also settles any debt a previous lazy hop left.
				n.finishLazyEagerly()
			}
			return n, nil
		},
		XformCost: func(old dsu.App) time.Duration {
			o, ok := old.(*Server)
			if !ok {
				return 0
			}
			if opts.Lazy {
				// Installing the new version is O(1); the per-entry
				// work migrates to first-touch and the sweep.
				return LazyInstallCost
			}
			// Traversing and rewriting every entry, as Kitsune's heap
			// transformation does.
			return time.Duration(o.db.len()) * perEntry
		},
		LazyXform:    opts.Lazy,
		Rules:        fwd,
		ReverseRules: rev,
	}
}
