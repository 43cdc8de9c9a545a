package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
)

// eventLog is one job's append-only progress history. Subscribers read
// it cursor-style: every subscriber sees the full sequence from the
// first event, so an SSE client attaching late still replays the whole
// lifecycle. Writers broadcast on a condition variable; readers wake on
// new events, log closure, or their own context's cancellation.
type eventLog struct {
	mu     sync.Mutex
	cond   *sync.Cond
	events []JobEvent
	closed bool
}

func newEventLog() *eventLog {
	l := &eventLog{}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// publish appends one event, stamping its sequence number.
func (l *eventLog) publish(ev JobEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	ev.Seq = len(l.events)
	l.events = append(l.events, ev)
	l.cond.Broadcast()
}

// close marks the log complete (the job reached a terminal state);
// readers drain the remaining history and stop.
func (l *eventLog) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	l.cond.Broadcast()
}

// next blocks until the event at cursor exists, returning it and ok =
// true, or ok = false when the log is closed past its end or ctx is
// done.
func (l *eventLog) next(ctx context.Context, cursor int) (JobEvent, bool) {
	// Wake this reader when the caller goes away; AfterFunc keeps the
	// wait loop free of extra channels.
	stop := context.AfterFunc(ctx, func() {
		l.mu.Lock()
		l.cond.Broadcast()
		l.mu.Unlock()
	})
	defer stop()
	l.mu.Lock()
	defer l.mu.Unlock()
	for cursor >= len(l.events) && !l.closed && ctx.Err() == nil {
		l.cond.Wait()
	}
	if cursor < len(l.events) && ctx.Err() == nil {
		return l.events[cursor], true
	}
	return JobEvent{}, false
}

// ServeEvents writes a server-sent event stream: next(seq) returns the
// event at seq, or false when the stream is over. The daemon and the
// cluster coordinator share this framing, which client.Events parses.
func ServeEvents(w http.ResponseWriter, next func(seq int) (JobEvent, bool)) {
	flusher, canFlush := w.(http.Flusher)
	if !canFlush {
		writeError(w, http.StatusNotImplemented, "no_stream", "response writer cannot stream")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	for seq := 0; ; seq++ {
		ev, ok := next(seq)
		if !ok {
			return
		}
		data, err := json.Marshal(ev)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Phase, data)
		flusher.Flush()
	}
}
