package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Spans of one cell or job share a trace id.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Trace  string `json:"trace"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write dumps them when the run ends. A nil
// tracer records nothing, so one code path serves traced and untraced runs.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id for finish and for children.
func (t *tracer) begin(name, trace string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Trace: trace, Start: now})
	return id
}

// finish closes span id.
func (t *tracer) finish(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs f inside a span.
func (t *tracer) do(name, trace string, parent int, f func()) {
	id := t.begin(name, trace, parent)
	f()
	t.finish(id)
}

// add records a span whose bounds were observed elsewhere (a progress
// callback, a client timestamp) and returns its id.
func (t *tracer) add(name, trace string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Trace: trace,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// layerTime is the aggregate of every span with one name.
type layerTime struct {
	Name        string
	Count       int
	Total, Self int64 // nanoseconds
}

// layers aggregates spans by name, self time net of child spans.
func (t *tracer) layers() map[string]*layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]*layerTime)
	for _, s := range t.spans {
		l := out[s.Name]
		if l == nil {
			l = &layerTime{Name: s.Name}
			out[s.Name] = l
		}
		l.Count++
		l.Total += s.End - s.Start
		l.Self += selfTime(s, kids[s.ID])
	}
	return out
}

// layerSpans are the spans around calls into a layer's public function;
// each one's self time is the per-layer metric <name>_s.
var layerSpans = []string{"workloads.build", "profile.collect", "ssp.rank", "ssp.adapt", "ssp.safety",
	"ir.parse", "ir.link", "decode.predecode", "threaded.compile", "check.conservation"}

// setLayerTimes records the self time of every layer span the run made.
func setLayerTimes(r *report, ls map[string]*layerTime, note string) {
	for _, name := range layerSpans {
		if l := ls[name]; l != nil {
			r.set(name+"_s", float64(l.Self)/1e9, l.Count, note)
		}
	}
}

// printLayers writes the per-layer self-time table, largest first.
func printLayers(w io.Writer, ls map[string]*layerTime) {
	var rows []*layerTime
	var all int64
	for _, l := range ls {
		rows = append(rows, l)
		all += l.Self
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Self != rows[j].Self {
			return rows[i].Self > rows[j].Self
		}
		return rows[i].Name < rows[j].Name
	})
	fmt.Fprintf(w, "%-22s %7s %10s %10s %7s\n", "span", "count", "total_s", "self_s", "self%")
	for _, l := range rows {
		share := 0.0
		if all > 0 {
			share = 100 * float64(l.Self) / float64(all)
		}
		fmt.Fprintf(w, "%-22s %7d %10.4f %10.4f %6.1f%%\n", l.Name, l.Count,
			float64(l.Total)/1e9, float64(l.Self)/1e9, share)
	}
}

// write dumps every span as JSON to dir/name.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	return path, os.WriteFile(path, data, 0o644)
}
