package ftpd

import (
	"fmt"
	"strings"
	"time"

	"mvedsua/internal/dsl"
	"mvedsua/internal/dsu"
)

// BaseXformCost is the fixed state-transformation cost: Vsftpd is
// essentially stateless (§6.1 footnote 10), so the pause is tiny.
const BaseXformCost = 2 * time.Millisecond

// rewriteRule builds a rule mapping an exact old reply to the new one.
func rewriteRule(name, oldText, newText string) string {
	o, n := oldText+"\r\n", newText+"\r\n"
	quote := func(s string) string { return (&dsl.StringLit{Value: s}).String() }
	return fmt.Sprintf(`
rule %s {
    match write(fd, s, x) where s == %s {
        emit write(fd, %s, %d);
    }
}
`, quote(name), quote(o), quote(n), len(n))
}

// unknownRedirectRule is the paper's Figure 5: commands the old version
// rejects are redirected to a command guaranteed invalid in the new
// version too, keeping both states in sync.
const unknownRedirectRule = `
rule "unknown-command-redirect" {
    match read(f, s, n), write(f2, r, m) where prefix(r, "500") {
        emit read(f, "FOOBAR\r\n", 8), write(f2, r, m);
    }
}
`

// pwdSuffixRule maps the plain 257 reply to the 1.2.0 wording.
const pwdSuffixRule = `
rule "pwd-suffix" {
    match write(fd, s, n) where prefix(s, "257 ") {
        emit write(fd, concat(sub(s, 0, n - 2), " is the current directory\r\n"), n + 25);
    }
}
`

// pwdSuffixRevRule strips the suffix again for the updated-leader stage.
const pwdSuffixRevRule = `
rule "pwd-suffix-rev" {
    match write(fd, s, n) where prefix(s, "257 ") && suffix(s, " is the current directory\r\n") {
        emit write(fd, concat(sub(s, 0, n - 27), "\r\n"), n - 25);
    }
}
`

// typeRewordRule maps "200 Switching to X mode." to "200 Mode set to X.".
const typeRewordRule = `
rule "type-reword" {
    match write(fd, s, n) where prefix(s, "200 Switching to ") {
        emit write(fd, concat("200 Mode set to ", arg(s, 3), ".\r\n"),
                   len(concat("200 Mode set to ", arg(s, 3), ".\r\n")));
    }
}
`

// typeRewordRevRule is the reverse mapping; the mode token carries the
// trailing period in the new wording, so it is stripped with sub.
const typeRewordRevRule = `
rule "type-reword-rev" {
    match write(fd, s, n) where prefix(s, "200 Mode set to ") {
        emit write(fd, concat("200 Switching to ",
                              sub(arg(s, 4), 0, len(arg(s, 4)) - 1),
                              " mode.\r\n"),
                   len(concat("200 Switching to ",
                              sub(arg(s, 4), 0, len(arg(s, 4)) - 1),
                              " mode.\r\n")));
    }
}
`

// stouTolerateRule handles STOU issued to an updated leader (§5.1's
// "happy coincidence"): the new version stores the file (read, open,
// fwrite, close, reply); the outdated follower is fed FOOBAR and the 500
// reply it will produce. Vsftpd keeps no file-system state, so the two
// stay in sync.
const stouTolerateRule = `
rule "stou-tolerate" {
    match read(f, s, n), open(p, fl, nf), fwrite(wf, d, m), close(cf), write(f2, r, k)
        where cmd(s) == "STOU" {
        emit read(f, "FOOBAR\r\n", 8), write(f2, "500 Unknown command\r\n", 21);
    }
}
`

// featTolerateRule maps FEAT on an updated leader to an unknown command
// on the outdated follower.
const featTolerateRule = `
rule "feat-tolerate" {
    match read(f, s, n), write(f2, r, m) where cmd(s) == "FEAT" {
        emit read(f, "FOOBAR\r\n", 8), write(f2, "500 Unknown command\r\n", 21);
    }
}
`

// RulesFor derives the forward (outdated-leader stage) and reverse
// (updated-leader stage) rule sets for an adjacent version pair by
// diffing the two behaviour tables. The forward counts reproduce the
// paper's Table 1. Reverse rules are provided where a mapping exists;
// MDTM has none (its stat syscall is not expressible, §3.3.2's "no
// possible mapping" case).
func RulesFor(from, to string) (forward, reverse *dsl.RuleSet) {
	of, nf := SpecFor(from), SpecFor(to)
	var fwd, rev []string
	replyChange := func(name, oldText, newText string) {
		if oldText == newText {
			return
		}
		fwd = append(fwd, rewriteRule(name, oldText, newText))
		rev = append(rev, rewriteRule(name+"-rev", newText, oldText))
	}
	replyChange("banner", of.Banner, nf.Banner)
	replyChange("syst", of.SystReply, nf.SystReply)
	replyChange("quit", of.QuitReply, nf.QuitReply)
	replyChange("list-header", of.ListHeader, nf.ListHeader)
	replyChange("noop", of.NoopReply, nf.NoopReply)
	if of.PwdSuffix != nf.PwdSuffix {
		fwd = append(fwd, pwdSuffixRule)
		rev = append(rev, pwdSuffixRevRule)
	}
	if of.TypeStyle != nf.TypeStyle {
		fwd = append(fwd, typeRewordRule)
		rev = append(rev, typeRewordRevRule)
	}
	added := false
	if nf.HasSTOU && !of.HasSTOU {
		added = true
		rev = append(rev, stouTolerateRule)
	}
	if nf.HasFEAT && !of.HasFEAT {
		added = true
		rev = append(rev, featTolerateRule)
	}
	if nf.HasMDTM && !of.HasMDTM {
		added = true
		// No reverse mapping exists for MDTM (§3.3.2).
	}
	if added {
		// One Figure 5 redirect covers every command the old version
		// rejects, however many were added in the pair.
		fwd = append(fwd, unknownRedirectRule)
	}
	return parseRules(fwd), parseRules(rev)
}

func parseRules(srcs []string) *dsl.RuleSet {
	if len(srcs) == 0 {
		return nil
	}
	return dsl.MustParse(strings.Join(srcs, "\n"))
}

// RuleCount returns the number of forward rules for a pair — the
// quantity Table 1 reports.
func RuleCount(from, to string) int {
	fwd, _ := RulesFor(from, to)
	if fwd == nil {
		return 0
	}
	return len(fwd.Rules)
}

// Update builds the dsu.Version descriptor for from→to.
func Update(from, to string) *dsu.Version {
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
		panic(fmt.Sprintf("ftpd: unsupported update %s -> %s", from, to))
	}
	fwd, rev := RulesFor(from, to)
	return &dsu.Version{
		Name: to,
		Xform: func(old dsu.App) (dsu.App, error) {
			o, ok := old.(*Server)
			if !ok {
				return nil, fmt.Errorf("xform %s->%s: unexpected app %T", from, to, old)
			}
			n := o.Fork().(*Server)
			n.spec = SpecFor(to)
			return n, nil
		},
		XformCost: func(old dsu.App) time.Duration {
			o, ok := old.(*Server)
			if !ok {
				return BaseXformCost
			}
			return BaseXformCost + time.Duration(len(o.sessions))*10*time.Microsecond
		},
		Rules:        fwd,
		ReverseRules: rev,
	}
}
