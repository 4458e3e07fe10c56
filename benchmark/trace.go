package main

import (
	"encoding/json"
	"sort"
	"time"
)

// spanLog is the benchmark's own host-clock trace: spans around its
// calls into the program (run › rep[i] › setup › {build › preload,
// warmup}, drive, teardown, verify; run › probes › probe.<metric>),
// kept in memory and written as Chrome trace JSON when a traced run
// ends. Spans inside the program are the virtual-clock export's job.
// All methods run on the main goroutine.
type spanLog struct {
	spans []hostSpan
}

type hostSpan struct {
	name       string
	parent     int // index into spans, -1 for the root
	start, end time.Time
}

func (l *spanLog) begin(name string, parent int) int {
	l.spans = append(l.spans, hostSpan{name: name, parent: parent, start: time.Now()})
	return len(l.spans) - 1
}

func (l *spanLog) end(id int) time.Time {
	l.spans[id].end = time.Now()
	return l.spans[id].end
}

func (l *spanLog) endAt(id int, t time.Time) { l.spans[id].end = t }

// add records a span whose edges were stamped elsewhere (inside a sim
// task, where the timed section begins and ends).
func (l *spanLog) add(name string, parent int, start, end time.Time) {
	l.spans = append(l.spans, hostSpan{name: name, parent: parent, start: start, end: end})
}

// chromeJSON renders the spans as complete ('X') events on one track;
// they nest by time. A span's self time — its duration minus its
// children's — is in args.self_us.
func (l *spanLog) chromeJSON() ([]byte, error) {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Args map[string]any `json:"args"`
	}
	if len(l.spans) == 0 {
		return []byte(`{"traceEvents":[]}`), nil
	}
	child := make([]time.Duration, len(l.spans))
	for _, s := range l.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end.Sub(s.start)
		}
	}
	origin := l.spans[0].start
	events := make([]event, 0, len(l.spans))
	for i, s := range l.spans {
		parent := ""
		if s.parent >= 0 {
			parent = l.spans[s.parent].name
		}
		dur := s.end.Sub(s.start)
		events = append(events, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			TS:  float64(s.start.Sub(origin).Nanoseconds()) / 1e3,
			Dur: float64(dur.Nanoseconds()) / 1e3,
			Args: map[string]any{
				"parent":  parent,
				"self_us": float64((dur - child[i]).Nanoseconds()) / 1e3,
			},
		})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })
	return json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
