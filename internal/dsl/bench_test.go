package dsl_test

import (
	"testing"

	"mvedsua/internal/dsl"
	"mvedsua/internal/sysabi"
)

// Rule-path microbenchmarks: one iteration is one Transform of the window
// a kvstore follower's monitor holds when a command's events have been
// recorded. The acceptance bar is the allocation column
// (TestTransformAllocations pins the same numbers in tier-1).
//
// Run with:
//
//	make bench-rules

func benchTransform(b *testing.B, eng *dsl.Engine, s *stream, fires bool) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, fired := eng.Transform(s.next()); (fired != nil) != fires {
			b.Fatalf("rule fired: %v, want %v", fired != nil, fires)
		}
	}
}

// BenchmarkTransformHit: the 2.0.0 -> 2.0.1 reorder, which fires on every
// command and forwards every payload.
func BenchmarkTransformHit(b *testing.B) {
	eng, s := reorderStream()
	benchTransform(b, eng, s, true)
}

// BenchmarkTransformWhereMiss: 2.0.3 -> 2.1.0's three-event
// "expire-redirect" binds, evaluates cmd(s) == ... and misses on every
// ordinary command.
func BenchmarkTransformWhereMiss(b *testing.B) {
	eng, s := expireStream("GET key:000017\r\n", "$-1\r\n")
	benchTransform(b, eng, s, false)
}

// BenchmarkTransformLiteralHit: the same rule on a command it redirects,
// emitting two literals (two copies).
func BenchmarkTransformLiteralHit(b *testing.B) {
	eng, s := expireStream("EXPIRE key:000017 100\r\n", "-ERR unknown command 'EXPIRE'\r\n")
	benchTransform(b, eng, s, true)
}

// BenchmarkTransformMiss: the reorder rules on a window that starts with
// the wrong op — no rule gets as far as binding.
func BenchmarkTransformMiss(b *testing.B) {
	eng, s := reorderStream()
	fill := s.fill
	s.fill = func(w []sysabi.Event) {
		fill(w)
		w[0], w[1] = w[1], w[0]
	}
	benchTransform(b, eng, s, false)
}
