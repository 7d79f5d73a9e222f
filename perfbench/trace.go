package main

import (
	"bufio"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// Span parents: a span either names its parent by recorder index, is a
// request root, or asks to be attached to the root span of its request
// once the run ends (used for spans recorded on the server side of a
// connection, which finish before the client's root span exists).
const (
	rootSpan    = -1
	requestRoot = -2
)

// span is one traced interval. Start and End are offsets from the
// recorder's epoch, so a span costs no time.Time copies.
type span struct {
	Name   string        `json:"name"`
	Req    int64         `json:"req"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory for the whole run; they are linked and
// written out only when the run ends, so tracing adds one mutex-guarded
// append per span to the measured path.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// now is the current offset from the epoch.
func (r *recorder) now() time.Duration { return time.Since(r.epoch) }

// add records a finished span and returns its index.
func (r *recorder) add(name string, req int64, parent int, start, end time.Duration) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Req: req, Parent: parent, Start: start, End: end})
	return len(r.spans) - 1
}

// reserve records a root span whose end is not known yet; finish closes
// it. Children may name the returned index as their parent meanwhile.
func (r *recorder) reserve(name string, req int64, parent int) int {
	return r.add(name, req, parent, r.now(), 0)
}

func (r *recorder) finish(idx int) {
	end := r.now()
	r.mu.Lock()
	r.spans[idx].End = end
	r.mu.Unlock()
}

// link resolves requestRoot parents to the root span of the same request
// and returns the finished span list.
func (r *recorder) link() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	roots := make(map[int64]int)
	for i, s := range r.spans {
		if s.Parent == rootSpan {
			roots[s.Req] = i
		}
	}
	for i, s := range r.spans {
		if s.Parent == requestRoot {
			if p, ok := roots[s.Req]; ok {
				r.spans[i].Parent = p
			} else {
				r.spans[i].Parent = rootSpan
			}
		}
	}
	return r.spans
}

// concatSpans joins the span lists of several recorders into one,
// re-basing parent indices.
func concatSpans(parts ...[]span) []span {
	var out []span
	for _, p := range parts {
		base := len(out)
		for _, s := range p {
			if s.Parent >= 0 {
				s.Parent += base
			}
			out = append(out, s)
		}
	}
	return out
}

// writeSpans dumps the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that the union of its children's intervals covers.
// Overlapping children (concurrent work under one parent) are counted
// once, and a child sticking out of its parent counts only inside it.
func selfTimes(spans []span) []time.Duration {
	type iv struct{ a, b time.Duration }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		ch := kids[i]
		slices.SortFunc(ch, func(x, y iv) int { return cmp.Compare(x.a, y.a) })
		covered := time.Duration(0)
		cur := iv{-1, -1}
		flush := func() {
			if cur.b > cur.a {
				covered += cur.b - cur.a
			}
		}
		for _, c := range ch {
			a, b := max(c.a, s.Start), min(c.b, s.End)
			if b <= a {
				continue
			}
			if cur.b < 0 || a > cur.b {
				flush()
				cur = iv{a, b}
			} else if b > cur.b {
				cur.b = b
			}
		}
		flush()
		out[i] = s.dur() - covered
	}
	return out
}

// layerTimes collects, for every span named name, its duration, or with
// useSelf its self time from self, in milliseconds.
func layerTimes(spans []span, self []time.Duration, name string, useSelf bool) []float64 {
	var out []float64
	for i, s := range spans {
		if s.Name != name {
			continue
		}
		d := s.dur()
		if useSelf {
			d = self[i]
		}
		out = append(out, float64(d)/float64(time.Millisecond))
	}
	return out
}

// saveSpans writes a traced run's spans next to the build outputs.
func saveSpans(cfg *config, spans []span) error {
	dir := filepath.Join(cfg.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return writeSpans(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed)), spans)
}

// artifactName is the content-addressed file name the compile cache
// gives a source's artifact.
func artifactName(src string) string {
	sum := sha256.Sum256([]byte(src))
	return hex.EncodeToString(sum[:]) + ".rsti"
}
