package bench

import (
	"bufio"
	"encoding/json"
	"io"
	"time"
)

// span is one timed call from the benchmark into a layer of the program.
// Times are nanoseconds since the recorder was created.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for a root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Pass     int    `json:"pass"`
	Start    int64  `json:"startNs"`
	End      int64  `json:"endNs"`
}

// recorder keeps spans in memory until the run ends. It is driven from one
// goroutine (the benchmark's own), so the open-span stack gives each span
// its parent. A nil recorder records nothing: the untraced runs that
// produce the end-to-end metrics pay one nil check per boundary.
type recorder struct {
	epoch    time.Time
	workload string
	pass     int
	spans    []span
	open     []int
}

func newRecorder(workload string) *recorder {
	return &recorder{epoch: time.Now(), workload: workload}
}

// setPass labels the spans that follow with a serve-pass number.
func (r *recorder) setPass(p int) {
	if r != nil {
		r.pass = p
	}
}

// begin opens a span under the innermost open one and returns its id.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Name: name, Workload: r.workload, Pass: r.pass,
		Start: time.Since(r.epoch).Nanoseconds(),
	})
	r.open = append(r.open, id)
	return id
}

// end closes the span (and any span left open inside it).
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	for n := len(r.open); n > 0; n = len(r.open) {
		top := r.open[n-1]
		r.open = r.open[:n-1]
		r.spans[top].End = now
		if top == id {
			return
		}
	}
}

// timed runs fn inside a span and returns how long it took. It times fn
// with or without a recorder, so probes share one code path.
func (r *recorder) timed(name string, fn func()) time.Duration {
	id := r.begin(name)
	start := time.Now()
	fn()
	d := time.Since(start)
	r.end(id)
	return d
}

// selfTimes sums, per span name, each span's duration minus the part its
// direct children cover. Children of one parent never overlap (one
// goroutine, stack discipline), so the covered part is the children's sum.
func selfTimes(spans []span) map[string]time.Duration {
	children := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]time.Duration{}
	for _, s := range spans {
		self[s.Name] += time.Duration(s.End - s.Start - children[s.ID])
	}
	return self
}

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}
