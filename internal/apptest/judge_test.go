package apptest

import (
	"testing"

	"mvedsua/internal/core"
	"mvedsua/internal/sim"
)

// TestJudgeReplaysTheTranscriptOnTheTwin: an echo session the judge
// passes, and the same transcript tampered with — one reply dropped, one
// duplicated — which the twin's replay flags at exactly those steps.
func TestJudgeReplaysTheTranscriptOnTheTwin(t *testing.T) {
	w := NewWorld(core.Config{})
	w.Start(&echoServer{})
	w.S.Go("client", func(tk *sim.Task) {
		defer w.Finish()
		c := w.Connect(tk, 4242)
		defer c.Close(tk)
		for _, line := range []string{"a", "b", "c"} {
			c.Do(tk, line)
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	want := Outcome{Leader: "v1"}
	if breaches := w.Judge(want); breaches != nil {
		t.Fatalf("untampered run: %v", breaches)
	}
	steps := w.Transcript()
	if len(steps) != 5 || steps[2].Sent != "b\r\n" || steps[2].Reply != "b\r\n" || steps[4].Read {
		t.Fatalf("transcript = %+v, want connect, three echoed lines, close", steps)
	}
	steps[1].Reply = ""              // lost
	steps[2].Reply += steps[2].Reply // duplicated
	breaches := w.Judge(want)
	if len(breaches) != 2 || breaches[0].Exchange != 1 || breaches[1].Exchange != 2 {
		t.Fatalf("tampered run: %v, want breaches at exchanges 1 and 2", breaches)
	}
}
