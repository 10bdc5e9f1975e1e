package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary.  Spans of one
// request share Op; Parent names the span that caused this one.
type span struct {
	Name   string `json:"name"`
	Op     string `json:"op"`
	Parent string `json:"parent,omitempty"`
	Pass   string `json:"pass"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// recorder keeps spans in memory until the run ends.  A nil recorder
// records nothing, which is how the untraced passes run the same code.
type recorder struct {
	mu    sync.Mutex // the client and the server's handler goroutine both add
	epoch time.Time
	pass  string
	spans []span
}

func newRecorder(pass string) *recorder {
	return &recorder{epoch: time.Now(), pass: pass, spans: make([]span, 0, 1<<14)}
}

func (r *recorder) add(name, op, parent string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{
		Name: name, Op: op, Parent: parent, Pass: r.pass,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(),
	})
	r.mu.Unlock()
}

// byOp indexes the spans of the given name by op id.
func (r *recorder) byOp(name string) map[string]span {
	out := make(map[string]span)
	for _, s := range r.spans {
		if s.Name == name {
			out[s.Op] = s
		}
	}
	return out
}

// writeSpans writes the recorders' spans as JSON lines.
func writeSpans(path string, recs ...*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, r := range recs {
		for i := range r.spans {
			if err := enc.Encode(&r.spans[i]); err != nil {
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
