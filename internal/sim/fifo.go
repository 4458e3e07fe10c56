package sim

// taskFIFO is the circular queue behind the scheduler's run queue and
// every WaitQueue: a power-of-two backing array indexed by head and
// count, so push and pop are O(1) and allocate only when the queue
// outgrows its array — the fix PR 4 gave the ring buffer, applied to
// the `q = q[1:]` shift-queues that re-allocated after every drain.
// The zero value is an empty queue.
type taskFIFO struct {
	buf  []*Task // len is zero or a power of two
	head int     // index of the oldest entry
	n    int     // entries queued
}

// fifoMinCap is the first backing array's size: most wait queues hold
// one or two tasks for their whole life.
const fifoMinCap = 4

func (q *taskFIFO) len() int { return q.n }

// push appends t at the tail.
func (q *taskFIFO) push(t *Task) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = t
	q.n++
}

// pop removes and returns the oldest entry, or nil when empty.
func (q *taskFIFO) pop() *Task {
	if q.n == 0 {
		return nil
	}
	t := q.buf[q.head]
	q.buf[q.head] = nil // do not keep a dequeued task reachable
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return t
}

// remove deletes the first occurrence of t, keeping the order of the
// rest, and reports whether t was queued. O(n), used only by Kill and
// BlockTimeout.
func (q *taskFIFO) remove(t *Task) bool {
	mask := len(q.buf) - 1
	for i := 0; i < q.n; i++ {
		if q.buf[(q.head+i)&mask] != t {
			continue
		}
		for j := i; j < q.n-1; j++ {
			q.buf[(q.head+j)&mask] = q.buf[(q.head+j+1)&mask]
		}
		q.buf[(q.head+q.n-1)&mask] = nil
		q.n--
		return true
	}
	return false
}

// grow doubles the backing array, unrolling the queue to start at 0.
func (q *taskFIFO) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = fifoMinCap
	}
	buf := make([]*Task, size)
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}
