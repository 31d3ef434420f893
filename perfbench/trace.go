package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one operation (a
// pipeline, a serving pass, a 7-day refresh pass) share Run.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine. A tracer that is off records nothing and costs one branch
// per call.
type tracer struct {
	on     bool
	origin time.Time
	run    int
	spans  []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, origin: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its id, or
// -1 when tracing is off.
func (t *tracer) begin(name string, parent int) int {
	if !t.on {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Start: int64(time.Since(t.origin))})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if id >= 0 {
		t.spans[id].End = int64(time.Since(t.origin))
	}
}

// adopt appends spans recorded by another tracer (a child process),
// renumbering their ids and shifting their times from that tracer's
// origin (given as Unix nanoseconds) to this one's.
func (t *tracer) adopt(spans []span, originUnixNano int64, run int) {
	base := len(t.spans)
	shift := originUnixNano - t.origin.UnixNano()
	for _, s := range spans {
		s.ID += base
		if s.Parent >= 0 {
			s.Parent += base
		}
		s.Run = run
		s.Start += shift
		s.End += shift
		t.spans = append(t.spans, s)
	}
}

// selfTimes returns each span's self time, indexed by position in
// spans: its duration minus the part of its interval that its child
// spans cover. Overlapping children are counted once.
func selfTimes(spans []span) []time.Duration {
	type iv struct{ lo, hi int64 }
	children := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := children[s.ID]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, reach := int64(0), s.Start
		for _, c := range ivs {
			lo, hi := max(c.lo, reach), min(c.hi, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.dur() - time.Duration(covered)
	}
	return self
}

// selfSeconds sums the self time of every span with the given name.
func selfSeconds(spans []span, name string) float64 {
	self := selfTimes(spans)
	total := time.Duration(0)
	for i, s := range spans {
		if s.Name == name {
			total += self[i]
		}
	}
	return total.Seconds()
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, in microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChromeTrace writes spans as a Chrome trace-event JSON file (one
// thread row per operation) with the run's provenance attached.
func writeChromeTrace(path string, spans []span, prov map[string]any) error {
	evs := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		evs = append(evs, chromeEvent{
			Name: s.Name, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Run,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "run": s.Run},
		})
	}
	data, err := json.Marshal(map[string]any{
		"traceEvents":     evs,
		"displayTimeUnit": "ms",
		"otherData":       prov,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
