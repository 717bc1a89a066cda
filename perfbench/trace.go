package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// writerConn is the tracer slot of the writer connection.
const writerConn = -1

// span is one timed call at a layer boundary. Times are nanoseconds
// since the tracer started; parent is the index of the enclosing span
// in the same buffer (-1 for a request's root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
}

// spanBuf holds one connection's spans; only that connection's
// goroutine appends, so it needs no lock.
type spanBuf struct {
	conn  int
	spans []span
	seq   int64
	rows  int64
}

// tracer keeps every span in memory until the run ends. A nil *tracer
// records nothing (the spans-off replay).
type tracer struct {
	t0   time.Time
	bufs map[int]*spanBuf
}

func newTracer(readers int) *tracer {
	t := &tracer{t0: time.Now(), bufs: map[int]*spanBuf{}}
	for c := -1; c < readers; c++ {
		t.bufs[c] = &spanBuf{conn: c}
	}
	return t
}

// spanCtx is one request in flight on one connection.
type spanCtx struct {
	tr    *tracer
	buf   *spanBuf
	req   int64
	stack []int32
}

// request opens a request's root span.
func (t *tracer) request(conn int, name string) *spanCtx {
	if t == nil {
		return nil
	}
	buf := t.bufs[conn]
	buf.seq++
	sp := &spanCtx{tr: t, buf: buf, req: int64(conn+1)<<40 | buf.seq}
	sp.begin(name)
	return sp
}

func (s *spanCtx) begin(name string) int32 {
	if s == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(s.stack); n > 0 {
		parent = s.stack[n-1]
	}
	id := int32(len(s.buf.spans))
	s.buf.spans = append(s.buf.spans, span{Name: name, Start: int64(time.Since(s.tr.t0)), Parent: parent, Req: s.req})
	s.stack = append(s.stack, id)
	return id
}

func (s *spanCtx) end(id int32) {
	if s == nil || id < 0 {
		return
	}
	s.buf.spans[id].End = int64(time.Since(s.tr.t0))
	s.stack = s.stack[:len(s.stack)-1]
}

// finish closes the root span.
func (s *spanCtx) finish() {
	if s == nil {
		return
	}
	for len(s.stack) > 0 {
		s.end(s.stack[len(s.stack)-1])
	}
}

func (s *spanCtx) addRows(n int) {
	if s != nil {
		s.buf.rows += int64(n)
	}
}

// layerTimes is the span durations of one name, in milliseconds, and
// their self times (duration minus the time child spans cover).
type layerTimes struct {
	dur  latencies
	self latencies
}

// byName groups every span's duration and self time by span name.
func (t *tracer) byName() map[string]*layerTimes {
	out := map[string]*layerTimes{}
	for _, buf := range t.bufs {
		child := make([]int64, len(buf.spans))
		for _, s := range buf.spans {
			if s.Parent >= 0 {
				child[s.Parent] += s.End - s.Start
			}
		}
		for i, s := range buf.spans {
			lt := out[s.Name]
			if lt == nil {
				lt = &layerTimes{}
				out[s.Name] = lt
			}
			d := time.Duration(s.End - s.Start)
			lt.dur.add(d)
			lt.self.add(d - time.Duration(child[i]))
		}
	}
	return out
}

// rows is the total rows the traced queries returned.
func (t *tracer) rows() int64 {
	var n int64
	for _, buf := range t.bufs {
		n += buf.rows
	}
	return n
}

// count is the number of spans recorded.
func (t *tracer) count() int {
	n := 0
	for _, buf := range t.bufs {
		n += len(buf.spans)
	}
	return n
}

// writeJSONL writes every span as one JSON object per line, with the
// connection and the parent's request-local index.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for c := -1; c < len(t.bufs)-1; c++ {
		for i, s := range t.bufs[c].spans {
			enc.Encode(struct {
				span
				Conn int `json:"conn"`
				ID   int `json:"id"`
			}{s, c, i})
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
