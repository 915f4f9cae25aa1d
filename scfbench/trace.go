package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer of the program, recorded from the
// benchmark's side of the call. Spans of one solve or job share Root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Root   int    `json:"root"`
	Layer  string `json:"layer"` // chem | linalg | core | serve
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer holds spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent (0 for a new root) and returns its ID.
func (t *tracer) begin(parent int, layer, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	root := id
	if parent > 0 {
		root = t.spans[parent-1].Root
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Root: root, Layer: layer, Name: name, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// record adds an already-timed span (start and end given as times).
func (t *tracer) record(parent int, layer, name string, start, end time.Time) {
	if t == nil {
		return
	}
	id := t.begin(parent, layer, name)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Start = start.Sub(t.epoch).Nanoseconds()
	t.spans[id-1].End = end.Sub(t.epoch).Nanoseconds()
}

// selfTimes returns, per layer, the summed span durations minus the
// part of each span's interval that its child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent > 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		out[s.Layer] += float64(s.End-s.Start-covered(s, children[s.ID])) / 1e6
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
