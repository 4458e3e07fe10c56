package ftpd

import (
	"strings"
	"testing"
	"time"

	"mvedsua/internal/apptest"
	"mvedsua/internal/core"
	"mvedsua/internal/proto"
	"mvedsua/internal/sim"
)

func serve(t *testing.T, version string, driver func(w *apptest.World, tk *sim.Task)) *apptest.World {
	t.Helper()
	w := apptest.NewWorld(core.Config{})
	w.K.WriteFile(Root+"/hello.txt", []byte("hello"))
	w.C.Start(New(SpecFor(version)))
	w.S.Go("driver", func(tk *sim.Task) {
		driver(w, tk)
		w.Finish()
	})
	if err := w.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return w
}

// login connects and authenticates, returning the client.
func login(w *apptest.World, tk *sim.Task) *apptest.Client {
	c := apptest.Connect(w.K, tk, Port)
	c.RecvUntil(tk, "\r\n") // banner
	c.Do(tk, "USER anonymous")
	c.Do(tk, "PASS guest")
	return c
}

func TestLoginFlowAndBanner(t *testing.T) {
	serve(t, "1.1.0", func(w *apptest.World, tk *sim.Task) {
		c := apptest.Connect(w.K, tk, Port)
		if got := c.RecvUntil(tk, "\r\n"); got != "220 FTP server ready.\r\n" {
			t.Errorf("banner = %q", got)
		}
		if got := c.Do(tk, "USER anonymous"); got != "331 Please specify the password.\r\n" {
			t.Errorf("USER = %q", got)
		}
		if got := c.Do(tk, "PASS guest"); got != "230 Login successful.\r\n" {
			t.Errorf("PASS = %q", got)
		}
		if got := c.Do(tk, "SYST"); got != "215 UNIX Type: L8\r\n" {
			t.Errorf("SYST = %q", got)
		}
		c.Close(tk)
	})
}

func TestPassWithoutUser(t *testing.T) {
	serve(t, "1.1.0", func(w *apptest.World, tk *sim.Task) {
		c := apptest.Connect(w.K, tk, Port)
		c.RecvUntil(tk, "\r\n")
		if got := c.Do(tk, "PASS x"); got != "503 Login with USER first.\r\n" {
			t.Errorf("PASS = %q", got)
		}
		c.Close(tk)
	})
}

func TestLoginRequiredForTransfers(t *testing.T) {
	serve(t, "1.1.0", func(w *apptest.World, tk *sim.Task) {
		c := apptest.Connect(w.K, tk, Port)
		c.RecvUntil(tk, "\r\n")
		for _, cmd := range []string{"LIST", "RETR hello.txt", "STOR f x", "CWD sub"} {
			if got := c.Do(tk, cmd); got != "530 Please login with USER and PASS.\r\n" {
				t.Errorf("%s = %q", cmd, got)
			}
		}
		c.Close(tk)
	})
}

func TestRetrStreamsFile(t *testing.T) {
	serve(t, "1.1.0", func(w *apptest.World, tk *sim.Task) {
		c := login(w, tk)
		c.Send(tk, "RETR hello.txt\r\n")
		got := c.RecvUntil(tk, "226 Transfer complete.\r\n")
		if !strings.Contains(got, "150 Opening ASCII mode data connection for hello.txt.\r\n") {
			t.Errorf("missing 150: %q", got)
		}
		if !strings.Contains(got, "hello") {
			t.Errorf("missing payload: %q", got)
		}
		c.Close(tk)
	})
}

func TestRetrMissingFile(t *testing.T) {
	serve(t, "1.1.0", func(w *apptest.World, tk *sim.Task) {
		c := login(w, tk)
		if got := c.Do(tk, "RETR nope.txt"); got != "550 Failed to open file.\r\n" {
			t.Errorf("RETR = %q", got)
		}
		c.Close(tk)
	})
}

func TestStorAndRetrRoundTrip(t *testing.T) {
	serve(t, "1.1.0", func(w *apptest.World, tk *sim.Task) {
		c := login(w, tk)
		if got := c.Do(tk, "STOR new.txt some content here"); got != "226 Transfer complete.\r\n" {
			t.Errorf("STOR = %q", got)
		}
		c.Send(tk, "RETR new.txt\r\n")
		got := c.RecvUntil(tk, "226 Transfer complete.\r\n")
		if !strings.Contains(got, "some content here") {
			t.Errorf("round trip = %q", got)
		}
		c.Close(tk)
	})
}

func TestListAndCwdAndPwd(t *testing.T) {
	serve(t, "1.1.0", func(w *apptest.World, tk *sim.Task) {
		c := login(w, tk)
		if got := c.Do(tk, "PWD"); got != "257 \"/srv/ftp\"\r\n" {
			t.Errorf("PWD = %q", got)
		}
		c.Send(tk, "LIST\r\n")
		got := c.RecvUntil(tk, "226 Directory send OK.\r\n")
		if !strings.Contains(got, "hello.txt") {
			t.Errorf("LIST = %q", got)
		}
		if got := c.Do(tk, "CWD sub"); got != "250 Directory successfully changed.\r\n" {
			t.Errorf("CWD = %q", got)
		}
		if got := c.Do(tk, "PWD"); got != "257 \"/srv/ftp/sub\"\r\n" {
			t.Errorf("PWD after CWD = %q", got)
		}
		c.Close(tk)
	})
}

func TestTypeCommand(t *testing.T) {
	serve(t, "1.1.0", func(w *apptest.World, tk *sim.Task) {
		c := login(w, tk)
		if got := c.Do(tk, "TYPE I"); got != "200 Switching to BINARY mode.\r\n" {
			t.Errorf("TYPE I = %q", got)
		}
		if got := c.Do(tk, "TYPE A"); got != "200 Switching to ASCII mode.\r\n" {
			t.Errorf("TYPE A = %q", got)
		}
		c.Close(tk)
	})
	serve(t, "2.0.3", func(w *apptest.World, tk *sim.Task) {
		c := login(w, tk)
		if got := c.Do(tk, "TYPE I"); got != "200 Mode set to BINARY.\r\n" {
			t.Errorf("2.0.3 TYPE I = %q", got)
		}
		c.Close(tk)
	})
}

func TestVersionGatedCommands(t *testing.T) {
	serve(t, "1.1.3", func(w *apptest.World, tk *sim.Task) {
		c := login(w, tk)
		for _, cmd := range []string{"STOU data", "FEAT", "MDTM hello.txt"} {
			if got := c.Do(tk, cmd); got != "500 Unknown command\r\n" {
				t.Errorf("1.1.3 %s = %q", cmd, got)
			}
		}
		c.Close(tk)
	})
	serve(t, "2.0.6", func(w *apptest.World, tk *sim.Task) {
		c := login(w, tk)
		if got := c.Do(tk, "STOU unique data"); got != "226 Transfer complete. Unique file: stou.0001\r\n" {
			t.Errorf("STOU = %q", got)
		}
		if got := c.Do(tk, "STOU more"); got != "226 Transfer complete. Unique file: stou.0002\r\n" {
			t.Errorf("STOU 2 = %q", got)
		}
		if got := c.Do(tk, "FEAT"); got != "211 Features: STOU MDTM\r\n" {
			t.Errorf("FEAT = %q", got)
		}
		if got := c.Do(tk, "MDTM hello.txt"); got != "213 20260101000000\r\n" {
			t.Errorf("MDTM = %q", got)
		}
		if got := c.Do(tk, "MDTM missing"); got != "550 Could not get file modification time.\r\n" {
			t.Errorf("MDTM missing = %q", got)
		}
		c.Close(tk)
	})
}

func TestQuitClosesSession(t *testing.T) {
	serve(t, "1.1.0", func(w *apptest.World, tk *sim.Task) {
		c := login(w, tk)
		if got := c.Do(tk, "QUIT"); got != "221 Goodbye.\r\n" {
			t.Errorf("QUIT = %q", got)
		}
	})
}

// Table 1: rewrite rules per Vsftpd version pair. This is the
// reproduction's headline static result for §5.1.
func TestTable1RuleCounts(t *testing.T) {
	want := []int{0, 2, 0, 2, 0, 0, 3, 0, 1, 1, 1, 1, 0}
	total := 0
	for i := 0; i+1 < len(Versions); i++ {
		got := RuleCount(Versions[i], Versions[i+1])
		if got != want[i] {
			t.Errorf("%s -> %s: %d rules, want %d", Versions[i], Versions[i+1], got, want[i])
		}
		total += got
	}
	avg := float64(total) / 13.0
	if avg < 0.84 || avg > 0.86 {
		t.Errorf("average rules per update = %.2f, want 0.85 (Table 1)", avg)
	}
}

// workload drives the commands whose replies differ across versions.
func workload(t *testing.T, tk *sim.Task, c *apptest.Client, rounds int, pause time.Duration) {
	t.Helper()
	for i := 0; i < rounds; i++ {
		for _, cmd := range []string{"SYST", "NOOP", "PWD", "TYPE I", "TYPE A"} {
			if got := c.Do(tk, cmd); got == "" {
				t.Fatalf("no reply to %s", cmd)
			}
		}
		c.Send(tk, "LIST\r\n")
		c.RecvUntil(tk, "226 Directory send OK.\r\n")
		c.Send(tk, "RETR hello.txt\r\n")
		c.RecvUntil(tk, "226 Transfer complete.\r\n")
		tk.Sleep(pause)
	}
}

// Every adjacent version pair updates cleanly under MVEDSUA with its
// generated rules while the full command mix runs — the dynamic half of
// the §5.1 evaluation. New commands are also probed during the
// outdated-leader stage: the Figure 5 redirect keeps both versions in
// sync while clients see the old semantics (500).
func TestAllPairsUpdateUnderMVEDSUA(t *testing.T) {
	for i := 0; i+1 < len(Versions); i++ {
		from, to := Versions[i], Versions[i+1]
		t.Run(from+"_to_"+to, func(t *testing.T) {
			serve(t, from, func(w *apptest.World, tk *sim.Task) {
				c := login(w, tk)
				workload(t, tk, c, 1, 5*time.Millisecond)
				if !w.C.Update(Update(from, to)) {
					t.Fatal("Update rejected")
				}
				workload(t, tk, c, 3, 10*time.Millisecond)
				// New connections during validation exercise the banner
				// rules.
				c2 := login(w, tk)
				workload(t, tk, c2, 1, 5*time.Millisecond)
				// Probe commands added by this update: the old leader
				// rejects them and the redirect rule keeps the follower
				// in line.
				of, nf := SpecFor(from), SpecFor(to)
				if nf.HasSTOU && !of.HasSTOU {
					if got := c.Do(tk, "STOU data"); got != "500 Unknown command\r\n" {
						t.Errorf("STOU while old leads = %q", got)
					}
				}
				if nf.HasFEAT && !of.HasFEAT {
					if got := c.Do(tk, "FEAT"); got != "500 Unknown command\r\n" {
						t.Errorf("FEAT while old leads = %q", got)
					}
				}
				if nf.HasMDTM && !of.HasMDTM {
					if got := c.Do(tk, "MDTM hello.txt"); got != "500 Unknown command\r\n" {
						t.Errorf("MDTM while old leads = %q", got)
					}
				}
				tk.Sleep(20 * time.Millisecond)
				if w.C.Stage() != core.StageOutdatedLeader {
					t.Fatalf("stage = %v; lifecycle:\n%s", w.C.Stage(), w.Rec.FormatTimeline())
				}
				// Promote and keep the mix flowing: reverse rules hold.
				w.C.Promote()
				workload(t, tk, c, 3, 10*time.Millisecond)
				if w.C.Stage() != core.StageUpdatedLeader {
					t.Fatalf("stage after promote = %v; divergences: %v",
						w.C.Stage(), w.C.Monitor().Divergences())
				}
				w.C.Commit()
				workload(t, tk, c, 1, time.Millisecond)
				if got := w.C.LeaderRuntime().App().Version(); got != to {
					t.Fatalf("final version = %s", got)
				}
				c.Close(tk)
				c2.Close(tk)
			})
		})
	}
}

// The §5.1 "happy coincidence": after promotion, a client issues STOU to
// the new leader. The file is created for real; the outdated follower is
// kept in sync by the tolerate rule; later RETRs of the new file succeed
// on both versions.
func TestSTOUAfterPromotionTolerated(t *testing.T) {
	from, to := "1.1.3", "1.2.0"
	serve(t, from, func(w *apptest.World, tk *sim.Task) {
		c := login(w, tk)
		w.C.Update(Update(from, to))
		workload(t, tk, c, 2, 10*time.Millisecond)
		w.C.Promote()
		workload(t, tk, c, 2, 10*time.Millisecond)
		if w.C.Stage() != core.StageUpdatedLeader {
			t.Fatalf("stage = %v; %v", w.C.Stage(), w.C.Monitor().Divergences())
		}
		if got := c.Do(tk, "STOU stored-by-new-version"); got != "226 Transfer complete. Unique file: stou.0001\r\n" {
			t.Fatalf("STOU = %q", got)
		}
		tk.Sleep(20 * time.Millisecond)
		if len(w.C.Monitor().Divergences()) != 0 {
			t.Fatalf("tolerate rule failed: %v", w.C.Monitor().Divergences())
		}
		// Both versions remain in sync: a later GET of the file works.
		c.Send(tk, "RETR stou.0001\r\n")
		got := c.RecvUntil(tk, "226 Transfer complete.\r\n")
		if !strings.Contains(got, "stored-by-new-version") {
			t.Fatalf("RETR stou.0001 = %q", got)
		}
		tk.Sleep(20 * time.Millisecond)
		if w.C.Stage() != core.StageUpdatedLeader {
			t.Fatalf("stage = %v; %v", w.C.Stage(), w.C.Monitor().Divergences())
		}
		c.Close(tk)
	})
}

// MDTM has no reverse mapping (§3.3.2): issuing it after promotion makes
// the outdated follower diverge, which terminates it — committing the
// update, exactly the paper's prescribed outcome.
func TestMDTMAfterPromotionTerminatesOldVersion(t *testing.T) {
	from, to := "2.0.3", "2.0.4"
	serve(t, from, func(w *apptest.World, tk *sim.Task) {
		c := login(w, tk)
		w.C.Update(Update(from, to))
		workload(t, tk, c, 2, 10*time.Millisecond)
		w.C.Promote()
		workload(t, tk, c, 2, 10*time.Millisecond)
		if w.C.Stage() != core.StageUpdatedLeader {
			t.Fatalf("stage = %v; %v", w.C.Stage(), w.C.Monitor().Divergences())
		}
		if got := c.Do(tk, "MDTM hello.txt"); got != "213 20260101000000\r\n" {
			t.Fatalf("MDTM = %q", got)
		}
		tk.Sleep(50 * time.Millisecond)
		if w.C.Stage() != core.StageSingleLeader {
			t.Fatalf("stage = %v, want committed single leader", w.C.Stage())
		}
		if got := w.C.LeaderRuntime().App().Version(); got != to {
			t.Fatalf("leader version = %s", got)
		}
		// Service continues on the new version.
		if got := c.Do(tk, "NOOP"); got == "" {
			t.Fatal("no reply after old version terminated")
		}
		c.Close(tk)
	})
}

func TestForkIsDeep(t *testing.T) {
	s := New(SpecFor("1.1.0"))
	s.sessions[9] = &session{in: newLineBuffer("partial"), cwd: "/a", loggedIn: true}
	f := s.Fork().(*Server)
	f.sessions[9].cwd = "/changed"
	f.sessions[9].in.Feed([]byte(" more"))
	if s.sessions[9].cwd != "/a" {
		t.Fatal("fork shares session structs")
	}
}

func TestSpecTableSanity(t *testing.T) {
	// Feature monotonicity along the lineage.
	prev := SpecFor(Versions[0])
	for _, v := range Versions[1:] {
		cur := SpecFor(v)
		if prev.HasSTOU && !cur.HasSTOU || prev.HasFEAT && !cur.HasFEAT || prev.HasMDTM && !cur.HasMDTM {
			t.Errorf("feature regression at %s", v)
		}
		prev = cur
	}
	if !SpecFor("1.2.0").HasSTOU || SpecFor("1.1.3").HasSTOU {
		t.Error("STOU introduction wrong")
	}
	if !SpecFor("2.0.0").HasFEAT || SpecFor("1.2.2").HasFEAT {
		t.Error("FEAT introduction wrong")
	}
	if !SpecFor("2.0.4").HasMDTM || SpecFor("2.0.3").HasMDTM {
		t.Error("MDTM introduction wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown version should panic")
		}
	}()
	SpecFor("3.0.0")
}

func TestUpdateRejectsNonAdjacent(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-adjacent update should panic")
		}
	}()
	Update("1.1.0", "1.2.0")
}

func TestLargeFileRetr(t *testing.T) {
	serve(t, "2.0.5", func(w *apptest.World, tk *sim.Task) {
		big := strings.Repeat("x", 3*ChunkSize+100)
		w.K.WriteFile(Root+"/big.bin", []byte(big))
		c := login(w, tk)
		c.Send(tk, "RETR big.bin\r\n")
		got := c.RecvUntil(tk, "226 Transfer complete.\r\n")
		if !strings.Contains(got, big[:ChunkSize]) || len(got) < len(big) {
			t.Fatalf("large transfer truncated: %d bytes", len(got))
		}
		c.Close(tk)
	})
}

func newLineBuffer(seed string) *proto.LineBuffer {
	b := &proto.LineBuffer{}
	b.Feed([]byte(seed))
	return b
}

// QUIT's reply changed in 2.0.0 ("Goodbye." -> "Goodbye!"): sessions
// that end during the outdated-leader stage exercise the quit rewrite
// rule plus the close-syscall replay.
func TestQuitDuringValidationUsesRule(t *testing.T) {
	from, to := "1.2.2", "2.0.0"
	serve(t, from, func(w *apptest.World, tk *sim.Task) {
		c := login(w, tk)
		w.C.Update(Update(from, to))
		workload(t, tk, c, 2, 10*time.Millisecond)
		if w.C.Stage() != core.StageOutdatedLeader {
			t.Fatalf("stage = %v; %v", w.C.Stage(), w.C.Monitor().Divergences())
		}
		// End this session while both versions run.
		if got := c.Do(tk, "QUIT"); got != "221 Goodbye.\r\n" {
			t.Errorf("QUIT reply = %q (old semantics must win)", got)
		}
		tk.Sleep(30 * time.Millisecond)
		if len(w.C.Monitor().Divergences()) != 0 {
			t.Fatalf("quit rule failed: %v", w.C.Monitor().Divergences())
		}
		// A fresh session exercises the banner rule, then keeps the
		// lifecycle going to commit.
		c2 := login(w, tk)
		workload(t, tk, c2, 1, 10*time.Millisecond)
		w.C.Promote()
		workload(t, tk, c2, 2, 10*time.Millisecond)
		if w.C.Stage() != core.StageUpdatedLeader {
			t.Fatalf("stage after promote = %v; %v", w.C.Stage(), w.C.Monitor().Divergences())
		}
		w.C.Commit()
		if got := c2.Do(tk, "QUIT"); got != "221 Goodbye!\r\n" {
			t.Errorf("QUIT after commit = %q (new semantics)", got)
		}
	})
}
