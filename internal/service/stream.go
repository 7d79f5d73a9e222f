package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"rsti/internal/core"
	"rsti/internal/engine"
)

// Streaming runs: POST /v1/run/stream takes the same body as /v1/run and
// answers with a Server-Sent Events stream —
//
//	event: output            (repeated; data is a JSON string chunk)
//	event: result            (terminal; data is the runResponse JSON)
//
// Output is delivered as the interpreter produces it, not as one final
// flush: every printf lands in the stream sink, is forwarded to the
// response and flushed. The run is driven by the request context, so a
// client that disconnects mid-run cancels it at the interpreter's next
// cancellation checkpoint (the run reports TrapCancelled); output
// truncation (the byte cap) is reported on the terminal result event,
// exactly as the buffered endpoint reports it.
//
// Request validation failures behave like /v1/run — a JSON error
// envelope with an HTTP status. Only once the request is admitted does
// the response commit to text/event-stream.

// streamCap is the default output byte cap for streamed runs when the
// request leaves max_output_bytes zero — same default as buffered runs.
const streamCap = core.DefaultMaxOutputBytes

// streamSink is the io.Writer handed to the VM for a streamed run. The
// interpreter goroutine writes; the handler goroutine receives. After the
// client is gone (done closed) writes turn into drops so the worker never
// blocks on an abandoned stream while it coasts to its cancellation
// checkpoint.
type streamSink struct {
	ch   chan []byte
	done <-chan struct{}

	mu        sync.Mutex
	remaining int
	truncated bool
}

func newStreamSink(done <-chan struct{}, capBytes int) *streamSink {
	if capBytes <= 0 {
		capBytes = streamCap
	}
	return &streamSink{
		ch:        make(chan []byte, 64),
		done:      done,
		remaining: capBytes,
	}
}

// Write forwards p to the stream, enforcing the byte cap (core's capture
// is bypassed when an explicit Output writer is set, so the cap lives
// here). It never returns an error: a full or abandoned stream drops
// bytes rather than failing the run — mirroring the buffered endpoint,
// where truncation is reported, not fatal.
func (sk *streamSink) Write(p []byte) (int, error) {
	n := len(p)
	sk.mu.Lock()
	if sk.remaining <= 0 {
		if n > 0 {
			sk.truncated = true
		}
		sk.mu.Unlock()
		return n, nil
	}
	if n > sk.remaining {
		sk.truncated = true
		p = p[:sk.remaining]
	}
	sk.remaining -= len(p)
	sk.mu.Unlock()

	buf := make([]byte, len(p))
	copy(buf, p)
	select {
	case sk.ch <- buf:
	case <-sk.done:
	}
	return n, nil
}

func (sk *streamSink) wasTruncated() bool {
	sk.mu.Lock()
	defer sk.mu.Unlock()
	return sk.truncated
}

// sseEvent writes one SSE event and flushes it to the client.
func sseEvent(w http.ResponseWriter, f http.Flusher, event string, data any) {
	raw, err := json.Marshal(data)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, raw)
	f.Flush()
}

func (s *Server) handleRunStream(w http.ResponseWriter, r *http.Request) {
	var req runRequest
	if !decode(w, r, &req) {
		return
	}
	mech, ok := parseMech(w, req.Mechanism)
	if !ok {
		return
	}
	key, c, ok := s.resolve(w, req.Program, req.Source)
	if !ok {
		return
	}
	cfg, ok := s.runConfig(w, r, &req)
	if !ok {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, KindInternal,
			"response writer does not support streaming")
		return
	}

	ctx := r.Context()
	sink := newStreamSink(ctx.Done(), cfg.MaxOutputBytes)
	cfg.Output = sink
	cfg.MaxOutputBytes = 0 // the sink owns the cap

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	// The engine drives the run with the request context: client gone →
	// run cancelled at the next interpreter checkpoint. The goroutine
	// closes the sink channel when the run finishes so the drain loop
	// below terminates after forwarding every produced chunk.
	type outcome struct {
		res *core.RunResult
		err error
	}
	resc := make(chan outcome, 1)
	go func() {
		defer close(sink.ch)
		var o outcome
		if req.NoWait {
			o.res, o.err = s.eng.TrySubmit(ctx, engine.Job{Comp: c, Mech: mech, Cfg: cfg})
		} else {
			o.res, o.err = s.eng.Submit(ctx, engine.Job{Comp: c, Mech: mech, Cfg: cfg})
		}
		resc <- o
	}()

	for chunk := range sink.ch {
		select {
		case <-ctx.Done():
			// Client gone: stop writing, let the run observe cancellation.
		default:
			sseEvent(w, flusher, "output", string(chunk))
		}
	}
	o := <-resc
	if o.err != nil {
		// Admission failed after the stream committed (queue full under
		// no_wait, shutdown): the envelope rides as the terminal event.
		kind := KindInternal
		switch {
		case errors.Is(o.err, engine.ErrQueueFull):
			kind = KindQueueFull
		case errors.Is(o.err, engine.ErrClosed):
			kind = KindShutdown
		case ctx.Err() != nil:
			kind = KindShutdown
		}
		sseEvent(w, flusher, "error", apiError{Kind: kind, Message: o.err.Error()})
		return
	}
	s.recordPACOps(mech, o.res)
	out := runResponse{
		Program:         key,
		Mechanism:       mech.String(),
		Exit:            o.res.Exit,
		Cycles:          o.res.Stats.Cycles,
		Instrs:          o.res.Stats.Instrs,
		OutputTruncated: sink.wasTruncated(),
		Detected:        o.res.Detected(),
		Trap:            trapWire(o.res.Trap),
	}
	if o.res.Err != nil {
		out.Error = o.res.Err.Error()
		out.Cancelled = runCancelled(o.res.Err)
	}
	sseEvent(w, flusher, "result", out)
}
