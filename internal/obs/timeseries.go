package obs

import "time"

// Windowed time series: once Recorder.EnableWindows is called, every
// counter Add and histogram Observe also lands in a per-metric series
// bucketed by fixed-width virtual-clock windows. Because recording
// order under the sim scheduler is deterministic, the series — and any
// verdicts derived from them on window close — are byte-reproducible
// run to run. Windows are off by default, so the golden artifacts
// (recorded without them) are unaffected.

// SeriesKind distinguishes what a series was derived from.
type SeriesKind int

const (
	// SeriesCounter aggregates counter deltas per window (Sum is the
	// windowed rate numerator; Count is the number of increments).
	SeriesCounter SeriesKind = iota
	// SeriesHistogram aggregates duration observations per window,
	// including a per-window bucket vector so windowed quantiles work.
	SeriesHistogram
)

// defaultSeriesRetention bounds the points kept per series; older
// windows are evicted (counted in Series.Dropped).
const defaultSeriesRetention = 4096

// WindowSpan identifies one closed window on the virtual clock.
type WindowSpan struct {
	Index int64
	Start time.Duration
	End   time.Duration
}

// SeriesPoint is one window's aggregate. For counter series only Count
// and Sum are meaningful; histogram series also track extremes and a
// per-window bucket vector (lazily allocated, same bounds as
// Histogram.Buckets).
type SeriesPoint struct {
	Window  int64
	Count   int64
	Sum     int64
	Min     time.Duration
	Max     time.Duration
	Buckets []int64
}

// Quantile estimates the q-quantile of a histogram-series point using
// the same bucket interpolation (clamped to [Min,Max]) as
// Histogram.Quantile. Zero for counter points or empty windows.
func (p *SeriesPoint) Quantile(q float64) time.Duration {
	if p == nil || p.Count == 0 || p.Buckets == nil {
		return 0
	}
	return bucketQuantile(q, p.Count, p.Min, p.Max, p.Buckets)
}

// Series is the bounded windowed timeline of one metric: a circular
// buffer of per-window aggregates in ascending window order.
type Series struct {
	Name    string
	Kind    SeriesKind
	Dropped int64 // points evicted once retention filled

	points []SeriesPoint
	start  int // oldest slot once the buffer wrapped
	cap    int
}

// Points returns the retained per-window aggregates in ascending window
// order (a copy; bucket slices are shared and must not be mutated).
func (s *Series) Points() []SeriesPoint {
	if s == nil {
		return nil
	}
	out := make([]SeriesPoint, 0, len(s.points))
	for i := 0; i < len(s.points); i++ {
		out = append(out, s.points[(s.start+i)%len(s.points)])
	}
	return out
}

// PointAt returns the retained aggregate for window idx, or nil.
func (s *Series) PointAt(idx int64) *SeriesPoint {
	if s == nil {
		return nil
	}
	for i := 0; i < len(s.points); i++ {
		p := &s.points[(s.start+i)%len(s.points)]
		if p.Window == idx {
			return p
		}
	}
	return nil
}

// slotFor returns the point for window idx, appending (and evicting the
// oldest retained window if full) when idx opens a new window. Window
// indices only grow: virtual time is monotonic.
func (s *Series) slotFor(idx int64) *SeriesPoint {
	if n := len(s.points); n > 0 {
		last := &s.points[(s.start+n-1)%n]
		if last.Window == idx {
			return last
		}
	}
	if s.cap <= 0 {
		s.cap = defaultSeriesRetention
	}
	if len(s.points) < s.cap {
		s.points = append(s.points, SeriesPoint{Window: idx})
		return &s.points[len(s.points)-1]
	}
	old := s.start
	s.points[old] = SeriesPoint{Window: idx}
	s.start = (s.start + 1) % s.cap
	s.Dropped++
	return &s.points[old]
}

func (s *Series) add(idx int64, delta int64) {
	p := s.slotFor(idx)
	p.Count++
	p.Sum += delta
}

func (s *Series) observe(idx int64, d time.Duration) {
	if d < 0 {
		d = 0
	}
	p := s.slotFor(idx)
	if p.Count == 0 || d < p.Min {
		p.Min = d
	}
	if d > p.Max {
		p.Max = d
	}
	p.Count++
	p.Sum += int64(d)
	if p.Buckets == nil {
		p.Buckets = make([]int64, histBuckets+1)
	}
	p.Buckets[bucketIndex(d)]++
}

// merge folds src's points into s per window index; the merged series
// is re-laid-out contiguously and retention widens to hold every
// distinct window from both sides (aggregation output should not evict
// what both inputs retained).
func (s *Series) merge(src *Series) {
	if src == nil || len(src.points) == 0 {
		return
	}
	a, b := s.Points(), src.Points()
	merged := make([]SeriesPoint, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i].Window < b[j].Window):
			merged = append(merged, clonePoint(a[i]))
			i++
		case i >= len(a) || b[j].Window < a[i].Window:
			merged = append(merged, clonePoint(b[j]))
			j++
		default:
			merged = append(merged, mergePoints(a[i], b[j]))
			i, j = i+1, j+1
		}
	}
	s.points = merged
	s.start = 0
	if s.cap < len(merged) {
		s.cap = len(merged)
	}
	s.Dropped += src.Dropped
}

func clonePoint(p SeriesPoint) SeriesPoint {
	if p.Buckets != nil {
		p.Buckets = append([]int64(nil), p.Buckets...)
	}
	return p
}

func mergePoints(a, b SeriesPoint) SeriesPoint {
	out := clonePoint(a)
	if b.Count > 0 {
		if out.Count == 0 || b.Min < out.Min {
			out.Min = b.Min
		}
		if b.Max > out.Max {
			out.Max = b.Max
		}
	}
	out.Count += b.Count
	out.Sum += b.Sum
	if b.Buckets != nil {
		if out.Buckets == nil {
			out.Buckets = make([]int64, len(b.Buckets))
		}
		for i := range b.Buckets {
			out.Buckets[i] += b.Buckets[i]
		}
	}
	return out
}

// windowState is the recorder-wide window clock shared by the root
// registry and every child: one current window index, advanced lazily
// by whichever sample lands next, firing OnWindowClose callbacks for
// each fully elapsed window in order.
type windowState struct {
	width     time.Duration
	retention int
	now       func() time.Duration

	opened  bool
	cur     int64
	onClose []func(WindowSpan)
	firing  bool
}

func (w *windowState) indexOf(at time.Duration) int64 {
	return int64(at / w.width)
}

// advance moves the window clock to the window containing at, firing
// close callbacks for every window that fully elapsed, and returns the
// current window index. Samples recorded by a callback land in the new
// current window (the firing guard prevents recursive close storms).
func (w *windowState) advance(at time.Duration) int64 {
	idx := w.indexOf(at)
	if !w.opened {
		w.opened = true
		w.cur = idx
		return idx
	}
	if idx > w.cur {
		if !w.firing {
			w.firing = true
			for i := w.cur; i < idx; i++ {
				span := WindowSpan{
					Index: i,
					Start: time.Duration(i) * w.width,
					End:   time.Duration(i+1) * w.width,
				}
				for _, fn := range w.onClose {
					fn(span)
				}
			}
			w.firing = false
		}
		w.cur = idx
	}
	return idx
}

// EnableWindows turns on windowed series with the given bucket width.
// Off by default; calling it again (or with width <= 0) is a no-op, so
// the first configuration wins. Samples recorded before the call are
// not retroactively bucketed.
func (r *Recorder) EnableWindows(width time.Duration) {
	if r == nil || width <= 0 || r.win != nil {
		return
	}
	r.win = &windowState{width: width, retention: defaultSeriesRetention, now: r.now}
	r.root.win = r.win
	for _, g := range r.children { // maporder: ok — same assignment to every child
		g.win = r.win
	}
}

// OnWindowClose registers fn to run once per fully elapsed window, in
// window order, the next time a sample (or CloseWindows) advances the
// clock past it. Callbacks run synchronously on the recording task and
// must not block or advance virtual time.
func (r *Recorder) OnWindowClose(fn func(WindowSpan)) {
	if r == nil || r.win == nil || fn == nil {
		return
	}
	r.win.onClose = append(r.win.onClose, fn)
}

// CloseWindows advances the window clock to the current virtual time,
// firing close callbacks for any windows that elapsed without a sample
// landing after them. Call at end of run before reading verdicts; the
// still-open current window is not closed.
func (r *Recorder) CloseWindows() {
	if r == nil || r.win == nil {
		return
	}
	r.win.advance(r.now())
}
