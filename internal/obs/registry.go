package obs

import (
	"time"
)

// Registry is a metrics store: counters, gauges and histograms. Each
// Recorder owns one, its root, which all Recorder.Add/Observe
// instrumentation feeds. A run over several recorders (one per fleet
// group or shard) aggregates their roots into a fresh registry with
// MergeInto.
//
// MergeInto is deliberately built from commutative, associative
// per-metric operations (counters sum, gauges take the max, histograms
// add counts and widen extremes), so merging K roots into an empty
// destination yields the same result in any merge order — the property
// the sharded runtime depends on, and one a test pins with a seeded
// shuffle.
//
// Like the Recorder, every method is safe on a nil receiver.
type Registry struct {
	counters map[string]int64
	gauges   map[string]int64
	hists    map[string]*Histogram
}

// NewRegistry builds an empty registry: a recorder's root or a merge
// destination. The label is ignored; the parameter stays because the
// benchmark adapter passes one.
func NewRegistry(string) *Registry {
	return &Registry{
		counters: make(map[string]int64),
		gauges:   make(map[string]int64),
		hists:    make(map[string]*Histogram),
	}
}

// Add increments counter name by delta.
func (g *Registry) Add(name string, delta int64) {
	if g == nil {
		return
	}
	g.counters[name] += delta
}

// Counter returns the current value of a counter.
func (g *Registry) Counter(name string) int64 {
	if g == nil {
		return 0
	}
	return g.counters[name]
}

// SetGauge records the latest value of gauge name.
func (g *Registry) SetGauge(name string, v int64) {
	if g == nil {
		return
	}
	g.gauges[name] = v
}

// MaxGauge raises gauge name to v if v exceeds its current value.
func (g *Registry) MaxGauge(name string, v int64) {
	if g == nil {
		return
	}
	if cur, ok := g.gauges[name]; !ok || v > cur {
		g.gauges[name] = v
	}
}

// Gauge returns the current value of a gauge.
func (g *Registry) Gauge(name string) int64 {
	if g == nil {
		return 0
	}
	return g.gauges[name]
}

// Observe records one duration into histogram name.
func (g *Registry) Observe(name string, d time.Duration) {
	if g == nil {
		return
	}
	h, ok := g.hists[name]
	if !ok {
		h = &Histogram{}
		g.hists[name] = h
	}
	h.observe(d)
}

// Hist returns the named histogram, or nil.
func (g *Registry) Hist(name string) *Histogram {
	if g == nil {
		return nil
	}
	return g.hists[name]
}

// MergeInto folds this registry's contents into dst. Counters sum,
// gauges keep the maximum, histograms combine counts/sums/extremes and
// add buckets elementwise. All operations are commutative and associative, so the result is
// independent of merge order. The source is left unchanged.
func (g *Registry) MergeInto(dst *Registry) {
	if g == nil || dst == nil || g == dst {
		return
	}
	for k, v := range g.counters { // maporder: ok — counter merge is commutative
		dst.counters[k] += v
	}
	for k, v := range g.gauges { // maporder: ok — max-merge is commutative
		if cur, ok := dst.gauges[k]; !ok || v > cur {
			dst.gauges[k] = v
		}
	}
	for k, h := range g.hists { // maporder: ok — histogram merge is commutative
		dh, ok := dst.hists[k]
		if !ok {
			dh = &Histogram{}
			dst.hists[k] = dh
		}
		dh.merge(h)
	}
}

// merge folds src into h. Extremes widen before counts change so the
// empty-destination case adopts src.Min rather than zero.
func (h *Histogram) merge(src *Histogram) {
	if src == nil || src.Count == 0 {
		return
	}
	if h.Count == 0 || src.Min < h.Min {
		h.Min = src.Min
	}
	if src.Max > h.Max {
		h.Max = src.Max
	}
	h.Count += src.Count
	h.Sum += src.Sum
	for i := range h.Buckets {
		h.Buckets[i] += src.Buckets[i]
	}
}

// Snapshot exports this registry alone (no trace bookkeeping — those
// fields belong to the Recorder). Safe on nil: returns empty maps, so a
// merged-registry report can serialize whether or not scoping ran.
func (g *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	g.snapshotInto(&s)
	return s
}

func (g *Registry) snapshotInto(s *Snapshot) {
	if g == nil {
		return
	}
	for k, v := range g.counters { // maporder: ok — map-to-map copy, order unobservable
		s.Counters[k] = v
	}
	for k, v := range g.gauges { // maporder: ok — map-to-map copy, order unobservable
		s.Gauges[k] = v
	}
	for k, h := range g.hists { // maporder: ok — map-to-map copy, order unobservable
		s.Histograms[k] = HistogramSnapshot{
			Count:   h.Count,
			SumNS:   int64(h.Sum),
			MaxNS:   int64(h.Max),
			MinNS:   int64(h.Min),
			MeanNS:  int64(h.Mean()),
			Buckets: append([]int64(nil), h.Buckets[:]...),
		}
	}
}
