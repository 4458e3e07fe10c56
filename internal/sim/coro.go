//go:build go1.23

// The build constraint lifts this one file to the go1.23 language line
// so it may use iter.Pull while both go.mod files stay at go 1.22 (the
// benchmark module's is frozen, and `go vet` rejects iter.Pull in a
// go1.22 file). There is no pre-1.23 implementation: the package needs
// a Go >= 1.23 toolchain.

package sim

import "iter"

// start makes t a runtime coroutine that will run fn: t.next resumes it
// (Scheduler.dispatch) and t.yield parks it (Task.park). A resume and a
// park are one runtime coroswitch each — a direct goroutine-to-goroutine
// switch that never enters the Go scheduler.
func (t *Task) start(fn func(*Task)) {
	t.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		t.yield = yield
		// iter.Pull re-raises a panic that leaves this function into
		// whoever called next, so the recover that turns application
		// panics into CrashInfo has to sit here, inside the sequence.
		defer t.exit()
		// t.next keeps this closure reachable for as long as the Task
		// is, so it must not keep fn: whatever fn captured (a replaced
		// version's whole runtime, say) has to die with fn's own frame.
		body := fn
		fn = nil
		body(t)
	})
}
