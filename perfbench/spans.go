package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval around a public call, in seconds since
// the traced run began. Parent indexes the enclosing span, -1 for a
// root; spans of one operation share Op.
type span struct {
	Name   string  `json:"name"`
	Op     int     `json:"op"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
}

// spans keeps a traced run's spans in memory until it ends. A nil
// *spans records nothing, so untraced code paths call it freely.
type spans struct {
	t0   time.Time
	op   int
	open int // innermost open span, -1 when none
	list []span
}

func newSpans() *spans { return &spans{t0: time.Now(), open: -1} }

// spanRef closes the span begin opened.
type spanRef struct {
	s *spans
	i int
}

func (s *spans) begin(name string) spanRef {
	if s == nil {
		return spanRef{}
	}
	now := time.Since(s.t0).Seconds()
	s.list = append(s.list, span{Name: name, Op: s.op, Parent: s.open, Start: now})
	s.open = len(s.list) - 1
	return spanRef{s, s.open}
}

func (r spanRef) end() {
	if r.s == nil {
		return
	}
	sp := &r.s.list[r.i]
	sp.End = time.Since(r.s.t0).Seconds()
	r.s.open = sp.Parent
}

// medianMs is the median duration in milliseconds of the spans named
// name, 0 when there are none.
func (s *spans) medianMs(name string) float64 {
	var ds []float64
	for _, sp := range s.list {
		if sp.Name == name {
			ds = append(ds, (sp.End-sp.Start)*1e3)
		}
	}
	return quantile(ds, 0.5)
}

func (s *spans) write(path string) error {
	b, err := json.Marshal(s.list)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
