package tkv

import (
	"fmt"
	"strings"
	"testing"

	"mvedsua/internal/apptest"
	"mvedsua/internal/dsu"
	"mvedsua/internal/sim"
	"mvedsua/internal/vos"
)

// TestServerOwnsItsReadBuffer: the leader and each replica overwrite
// their read buffer as soon as a write returns, and nothing changes.
func TestServerOwnsItsReadBuffer(t *testing.T) {
	err := apptest.CheckOwnership(
		func() dsu.App { return New("v2", false) },
		func(app dsu.App, tid int) [][]byte { return [][]byte{app.(*Server).rbuf[:]} },
		nil,
		func(k *vos.Kernel, tk *sim.Task) string {
			var read strings.Builder
			c := apptest.Connect(k, tk, Port)
			for i := 0; i < 150; i++ {
				v := strings.Repeat(string(rune('a'+i%26)), 1+i%60)
				read.WriteString(c.Do(tk, fmt.Sprintf("PUT-string k%d %s", i%5, v)))
				read.WriteString(c.Do(tk, fmt.Sprintf("GET k%d", (i+2)%5)))
				read.WriteString(c.Do(tk, fmt.Sprintf("TYPE k%d", i%7)))
			}
			c.Close(tk)
			return read.String()
		})
	if err != nil {
		t.Fatal(err)
	}
}

// TestForkSharesNoScratch pins that Fork leaves the token scratch out.
func TestForkSharesNoScratch(t *testing.T) {
	s := New("v1", false)
	s.execute([]byte("PUT k v"))
	if f := s.Fork().(*Server); cap(s.args) == 0 || f.args != nil {
		t.Errorf("scratch cap %d, fork's %q", cap(s.args), f.args)
	}
}
