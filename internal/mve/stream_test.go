package mve

import (
	"fmt"
	"math/rand"
	"testing"

	"mvedsua/internal/sysabi"
)

// queueModel drives a queue[sysabi.Event] and a plain reference slice
// through the same operations and compares them after every step: same
// length, same contiguous window, and every slot outside the window
// zeroed (a popped event's payload must not stay reachable).
type queueModel struct {
	q    queue[sysabi.Event]
	ref  []sysabi.Event
	next uint64
}

func (m *queueModel) push(n int) {
	for i := 0; i < n; i++ {
		m.next++
		ev := sysabi.Event{Seq: m.next, Call: sysabi.Call{Op: sysabi.OpWrite, Buf: []byte{byte(m.next)}}}
		m.q.push(ev)
		m.ref = append(m.ref, ev)
	}
}

func (m *queueModel) pop(n int) {
	if n > len(m.ref) {
		n = len(m.ref)
	}
	m.q.pop(n)
	m.ref = m.ref[n:]
}

// replace puts k fresh events in place of the n oldest.
func (m *queueModel) replace(n, k int) {
	n = min(n, len(m.ref))
	with := make([]sysabi.Event, k)
	for i := range with {
		m.next++
		with[i] = sysabi.Event{Seq: m.next, Call: sysabi.Call{Op: sysabi.OpWrite, Buf: []byte{byte(m.next)}}}
	}
	m.q.replace(n, with)
	m.ref = append(with, m.ref[n:]...)
}

// check compares the implementation with the reference. The full window
// and slot scan is O(backlog), so long runs call it with full=false most
// of the time and compare only the ends.
func (m *queueModel) check(full bool) error {
	if m.q.len() != len(m.ref) {
		return fmt.Errorf("len = %d, reference %d", m.q.len(), len(m.ref))
	}
	w := m.q.window()
	if len(w) != len(m.ref) {
		return fmt.Errorf("window has %d entries, reference %d", len(w), len(m.ref))
	}
	same := func(i int) error {
		if w[i].Seq != m.ref[i].Seq || &w[i].Call.Buf[0] != &m.ref[i].Call.Buf[0] {
			return fmt.Errorf("window[%d] = #%d, reference #%d", i, w[i].Seq, m.ref[i].Seq)
		}
		return nil
	}
	if len(w) > 0 {
		if m.q.front() != &w[0] {
			return fmt.Errorf("front is not window[0]")
		}
		if err := same(0); err != nil {
			return err
		}
		if err := same(len(w) - 1); err != nil {
			return err
		}
	}
	if !full {
		return nil
	}
	for i := range w {
		if err := same(i); err != nil {
			return err
		}
	}
	all := m.q.buf[:cap(m.q.buf)]
	for i := range all {
		live := i >= m.q.head && i < len(m.q.buf)
		if !live && (all[i].Seq != 0 || all[i].Call.Buf != nil) {
			return fmt.Errorf("slot %d outside the window still holds #%d", i, all[i].Seq)
		}
	}
	return nil
}

// runScript interprets an op script, one byte per op: the low two bits
// choose push (0, 1), pop (2) or pop-everything (3), the rest the count.
// The fuzz target and the seed corpus share it.
func (m *queueModel) runScript(script []byte) error {
	for i, b := range script {
		switch n := int(b >> 2); b & 3 {
		case 0, 1:
			m.push(n + 1)
		case 2:
			m.pop(n)
		default:
			m.pop(len(m.ref))
		}
		if err := m.check(true); err != nil {
			return fmt.Errorf("op %d (%#02x): %v", i, b, err)
		}
	}
	return nil
}

// TestEventQueueMatchesReference holds a backlog of 1 to 4 096 events
// through several times its own length of push-one/pop-one traffic with
// random bursts mixed in — across growth, compaction and the reset on
// empty — and then drains it. Then it replaces the oldest one or three
// events by fewer, as many and more, behind no dead prefix, a dead prefix
// shorter than the gap and one long enough to take it; the last must not
// touch the backing array's capacity.
func TestEventQueueMatchesReference(t *testing.T) {
	for _, backlog := range []int{1, 2, 7, 64, 1000, 4096} {
		t.Run(fmt.Sprintf("backlog%d", backlog), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(backlog)))
			var m queueModel
			m.push(backlog)
			for step := 0; step < 4*backlog+64; step++ {
				switch r := rng.Intn(16); {
				case r == 0:
					m.push(1 + rng.Intn(8))
				case r == 1:
					m.pop(1 + rng.Intn(8))
				default:
					m.push(1)
					m.pop(1)
				}
				if len(m.ref) == 0 {
					m.push(backlog)
				}
				if err := m.check(step%97 == 0); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
			for len(m.ref) > 0 {
				m.pop(1 + rng.Intn(backlog))
				if err := m.check(true); err != nil {
					t.Fatalf("drain: %v", err)
				}
			}
			if m.q.head != 0 || len(m.q.buf) != 0 {
				t.Fatalf("drained queue not reset: head %d len %d", m.q.head, len(m.q.buf))
			}
			for _, dead := range []int{0, 1, 4} {
				for _, n := range []int{1, 3} {
					for k := max(1, n-2); k <= n+3; k++ {
						m.push(backlog + dead)
						m.pop(dead)
						before := cap(m.q.buf)
						m.replace(n, k)
						if err := m.check(true); err != nil {
							t.Fatalf("replace %d by %d behind %d dead: %v", n, k, dead, err)
						}
						if k-min(n, backlog) <= dead && cap(m.q.buf) != before {
							t.Fatalf("replace %d by %d behind %d dead: capacity %d -> %d", n, k, dead, before, cap(m.q.buf))
						}
						m.pop(len(m.ref))
					}
				}
			}
		})
	}
}

// TestEventQueueSteadyStateDoesNotGrow: push-one/pop-one at a fixed
// backlog settles on one backing array (compaction, not growth).
func TestEventQueueSteadyStateDoesNotGrow(t *testing.T) {
	var m queueModel
	m.push(300)
	for i := 0; i < 2000; i++ {
		m.push(1)
		m.pop(1)
	}
	settled := cap(m.q.buf)
	for i := 0; i < 20000; i++ {
		m.push(1)
		m.pop(1)
	}
	if cap(m.q.buf) != settled {
		t.Fatalf("backing array grew from %d to %d at a constant backlog", settled, cap(m.q.buf))
	}
	if err := m.check(true); err != nil {
		t.Fatal(err)
	}
}

// FuzzEventQueue: op script -> queue vs reference slice. The seed corpus
// is testdata/fuzz/FuzzEventQueue, replayed by plain `go test`.
func FuzzEventQueue(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		var m queueModel
		if err := m.runScript(script); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkFollowerBacklog is one event through a follower thread's raw
// queue (push at the tail, read the window's head, pop it) while the
// queue holds a backlog. The cost per event must not depend on the
// backlog: memcache's worker threads leave hundreds of events queued per
// TID, and a queue that copied its tail down on every pop made the whole
// workload a quarter slower.
func BenchmarkFollowerBacklog(b *testing.B) {
	for _, backlog := range []int{1, 16, 256, 4096} {
		b.Run(fmt.Sprintf("backlog%d", backlog), func(b *testing.B) {
			var q queue[sysabi.Event]
			ev := sysabi.Event{Call: sysabi.Call{Op: sysabi.OpClock}}
			for i := 0; i < backlog; i++ {
				q.push(ev)
			}
			var sink uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev.Seq = uint64(i)
				q.push(ev)
				sink += q.window()[0].Seq
				q.pop(1)
			}
			benchSink += sink
		})
	}
}

var benchSink uint64

// TestRetireCatchesUpWithSeqsRetiredAhead: a multi-event rule match on
// one thread consumes raw events 5, 8 and 9 around another thread's 6
// and 7; globalNext must stop at 6, and jump over 8 and 9 once 7 retires.
func TestRetireCatchesUpWithSeqsRetiredAhead(t *testing.T) {
	p := &Proc{globalNext: 5}
	st := &tidStream{}
	for _, step := range []struct {
		seq  uint64
		more []uint64
		next uint64
	}{
		{5, []uint64{9, 8}, 6},
		{6, nil, 7},
		{7, nil, 10},
		{10, []uint64{11}, 12},
	} {
		// As transform makes a group: its first sequence number goes into
		// the group, the others onto the stream.
		st.grp = expGroup{seq: step.seq, n: 1}
		st.more = append(st.more, step.more...)
		p.retire(st)
		if p.globalNext != step.next {
			t.Fatalf("after retiring #%d%v: globalNext = %d, want %d", step.seq, step.more, p.globalNext, step.next)
		}
		if len(st.more) != 0 {
			t.Fatalf("after retiring #%d: %d sequence numbers left on the stream", step.seq, len(st.more))
		}
	}
	if len(p.ahead) != 0 {
		t.Fatalf("ahead = %v after everything retired", p.ahead)
	}
}
