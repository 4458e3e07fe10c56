package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestTaskFIFOMatchesReference drives taskFIFO and a plain slice with
// the same seeded operation stream — push, pop, remove (head, middle,
// tail and absent) — through growth and many wrap-arounds, comparing
// every result and the full queue order after every step.
func TestTaskFIFOMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q taskFIFO
		var ref []*Task
		pool := make([]*Task, 40)
		for i := range pool {
			pool[i] = &Task{id: i}
		}
		// Phases alternate between filling and draining so the queue
		// both grows past several doublings and wraps at each size.
		for step := 0; step < 4000; step++ {
			fill := (step/250)%2 == 0
			switch r := rng.Intn(10); {
			case r < 5 && fill || r < 2:
				tk := pool[rng.Intn(len(pool))]
				q.push(tk)
				ref = append(ref, tk)
			case r < 8:
				var want *Task
				if len(ref) > 0 {
					want, ref = ref[0], ref[1:]
				}
				if got := q.pop(); got != want {
					t.Fatalf("seed %d step %d: pop = %v, want %v", seed, step, got, want)
				}
			default:
				tk := pool[rng.Intn(len(pool))]
				want := false
				for i, x := range ref {
					if x == tk {
						ref = append(ref[:i:i], ref[i+1:]...)
						want = true
						break
					}
				}
				if got := q.remove(tk); got != want {
					t.Fatalf("seed %d step %d: remove = %v, want %v", seed, step, got, want)
				}
			}
			if q.len() != len(ref) {
				t.Fatalf("seed %d step %d: len = %d, want %d", seed, step, q.len(), len(ref))
			}
			if n := len(q.buf); n&(n-1) != 0 {
				t.Fatalf("seed %d step %d: backing array of %d is not a power of two", seed, step, n)
			}
			for i, want := range ref {
				if got := q.buf[(q.head+i)&(len(q.buf)-1)]; got != want {
					t.Fatalf("seed %d step %d: slot %d = %v, want %v", seed, step, i, got, want)
				}
			}
			live := 0
			for _, x := range q.buf {
				if x != nil {
					live++
				}
			}
			if live != len(ref) {
				t.Fatalf("seed %d step %d: %d non-nil slots for %d entries: a vacated slot still pins its task", seed, step, live, len(ref))
			}
		}
	}
}

// TestTimerHeapPopsInWhenSeqOrder checks the hand-written heap against
// a sort: interleaved pushes, pops and removes from the middle must
// pop by (when, seq), equal deadlines in arming order, and remove
// exactly the timer asked for. After every step each task's timerIdx
// points at its own timer, and a timer taken out has timerIdx 0.
func TestTimerHeapPopsInWhenSeqOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var h timerHeap
	var ref []timer
	var seq int64
	taken := func(step int, got, want timer) {
		if got != want {
			t.Fatalf("step %d: took (%v, %d), want (%v, %d)", step, got.when, got.seq, want.when, want.seq)
		}
		if got.task.timerIdx != 0 {
			t.Fatalf("step %d: a timer out of the heap kept timerIdx %d", step, got.task.timerIdx)
		}
	}
	popAndCheck := func(step int) {
		sort.Slice(ref, func(i, j int) bool {
			if ref[i].when != ref[j].when {
				return ref[i].when < ref[j].when
			}
			return ref[i].seq < ref[j].seq
		})
		want := ref[0]
		ref = ref[1:]
		taken(step, h.pop(), want)
	}
	for step := 0; step < 5000; step++ {
		switch r := rng.Intn(10); {
		case len(ref) == 0 || r < 5:
			seq++
			tm := timer{when: time.Duration(rng.Intn(50)), seq: seq, task: &Task{id: int(seq)}}
			h.push(tm)
			ref = append(ref, tm)
		case r < 8:
			popAndCheck(step)
		default:
			k := rng.Intn(len(ref))
			want := ref[k]
			ref = append(ref[:k:k], ref[k+1:]...)
			taken(step, h.remove(want.task.timerIdx-1), want)
		}
		if len(h) != len(ref) {
			t.Fatalf("step %d: heap holds %d timers, reference %d", step, len(h), len(ref))
		}
		for i, tm := range h {
			if tm.task.timerIdx != i+1 {
				t.Fatalf("step %d: slot %d's task has timerIdx %d", step, i, tm.task.timerIdx)
			}
		}
	}
	for step := 5000; len(ref) > 0; step++ {
		popAndCheck(step)
	}
	if len(h) != 0 {
		t.Fatalf("%d timers left in the heap", len(h))
	}
}
