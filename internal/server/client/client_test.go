package client_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"fsmem/internal/config"
	"fsmem/internal/server"
	"fsmem/internal/server/client"
)

// slowSim is a simulate job that runs for tens of milliseconds: long
// enough that a Wait right after Submit finds it live.
func slowSim(seed uint64) server.JobRequest {
	e := config.Default()
	e.Workload = "mcf"
	e.Scheduler = "fs_bp"
	e.Cores = 2
	e.Reads = 5000
	e.Seed = seed
	return server.JobRequest{Kind: server.KindSimulate, Simulate: &e}
}

// startDaemon runs a real single-node daemon behind httptest. conns, if
// non-nil, counts the TCP connections the daemon accepts.
func startDaemon(t *testing.T, conns *atomic.Int64) *client.Client {
	t.Helper()
	s, err := server.New(server.Options{Workers: 2, RatePerSec: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(s.Handler())
	if conns != nil {
		ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				conns.Add(1)
			}
		}
	}
	ts.Start()
	t.Cleanup(func() {
		s.Drain(context.Background())
		ts.Close()
	})
	return client.New(ts.URL, ts.Client())
}

// TestWaitWakesOnCompletion pins the event-driven wait: with an hour as
// the poll interval, a job that finishes in milliseconds still returns
// done at once, because Wait follows the job's event stream instead of
// sleeping out a poll period.
func TestWaitWakesOnCompletion(t *testing.T) {
	cl := startDaemon(t, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := cl.Submit(ctx, slowSim(1))
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	st, err = cl.Wait(ctx, st.ID, time.Hour)
	if err != nil || st.State != server.StateDone {
		t.Fatalf("wait: %v, state %s (%s)", err, st.State, st.Error)
	}
	if d := time.Since(t0); d > 10*time.Second {
		t.Fatalf("wait took %v for a job of milliseconds", d)
	}
}

// TestEventsReusesConnection pins that a stream read to its terminal
// event hands its keep-alive connection back: sequential waits and
// status calls share one TCP connection.
func TestEventsReusesConnection(t *testing.T) {
	var conns atomic.Int64
	cl := startDaemon(t, &conns)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for seed := uint64(1); seed <= 5; seed++ {
		st, err := cl.Submit(ctx, slowSim(seed))
		if err != nil {
			t.Fatal(err)
		}
		if st, err = cl.Wait(ctx, st.ID, time.Hour); err != nil || st.State != server.StateDone {
			t.Fatalf("wait: %v, state %s", err, st.State)
		}
		if err := cl.Events(ctx, st.ID, func(server.JobEvent) bool { return true }); err != nil {
			t.Fatal(err)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("%d connections for sequential requests, want 1", n)
	}
}

// fakeJob serves one job "j1" that reports running until doneAfter has
// passed, then done; events serves its /events endpoint. It counts the
// status and stream requests it answers.
type fakeJob struct {
	start            time.Time
	doneAfter        time.Duration
	events           http.HandlerFunc
	statuses, opened atomic.Int64
}

func (f *fakeJob) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/v1/jobs/j1":
		f.statuses.Add(1)
		st := server.JobStatus{ID: "j1", Kind: server.KindSimulate, State: server.StateRunning}
		if time.Since(f.start) >= f.doneAfter {
			st.State = server.StateDone
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(st)
	case "/v1/jobs/j1/events":
		f.opened.Add(1)
		f.events(w, r)
	default:
		http.NotFound(w, r)
	}
}

func waitFake(t *testing.T, f *fakeJob, poll time.Duration) server.JobStatus {
	t.Helper()
	f.start = time.Now()
	ts := httptest.NewServer(f)
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := client.New(ts.URL, ts.Client()).Wait(ctx, "j1", poll)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	return st
}

// TestWaitFallsBackWhenStreamRefused pins the fallback for a server
// without the stream: Wait re-checks the status at the poll interval and
// asks for the refused stream only once.
func TestWaitFallsBackWhenStreamRefused(t *testing.T) {
	f := &fakeJob{doneAfter: 100 * time.Millisecond, events: func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(server.ErrorBody{Error: "no such route", Code: "not_found"})
	}}
	if st := waitFake(t, f, 5*time.Millisecond); st.State != server.StateDone {
		t.Fatalf("state %s, want done", st.State)
	}
	if n := f.opened.Load(); n != 1 {
		t.Fatalf("refused stream requested %d times, want 1", n)
	}
	if n := f.statuses.Load(); n < 2 {
		t.Fatalf("%d status checks, want the poll fallback to re-check", n)
	}
}

// TestWaitFallsBackWhenStreamEndsEarly pins the other fallback: a stream
// that closes without a terminal event (a cut connection or a drain) is
// re-checked and re-opened at the poll pace, never in a tight loop.
func TestWaitFallsBackWhenStreamEndsEarly(t *testing.T) {
	f := &fakeJob{doneAfter: 100 * time.Millisecond, events: func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprintf(w, "event: running\ndata: {\"seq\":0,\"phase\":\"running\",\"state\":\"running\"}\n\n")
	}}
	if st := waitFake(t, f, 20*time.Millisecond); st.State != server.StateDone {
		t.Fatalf("state %s, want done", st.State)
	}
	// 100 ms at a 20 ms pace is about 5 streams; a spin would open
	// thousands.
	if n := f.opened.Load(); n < 1 || n > 10 {
		t.Fatalf("stream opened %d times in 100ms at a 20ms poll, want 1..10", n)
	}
}
