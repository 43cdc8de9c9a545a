package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"fsmem/internal/config"
	"fsmem/internal/server"
	"fsmem/internal/server/client"
	"fsmem/internal/server/cluster"
	"fsmem/internal/sim"
	"fsmem/internal/trace"
)

const (
	// daemonClients is the closed loop's width: each client waits for
	// its reply before sending its next job.
	daemonClients = 2
	// daemonDistinct is the number of distinct jobs per pass; every
	// fourth job a client sends repeats one of its own finished jobs, so
	// a quarter of the traffic takes the cache path.
	daemonDistinct = 96
	// waitPoll is the client's status-poll interval.
	waitPoll = 2 * time.Millisecond
)

// The job mix: small jobs (2 cores, 100 demand reads, every scheduler)
// that simulate in about a millisecond, so HTTP, the journal, the store
// and dispatch set their latency. The coordinator polls its worker every
// 10 ms, so a job's latency is one poll period plus that overhead, and a
// host slowdown would have to stretch a millisecond of simulation past
// the whole period to move it by a poll.
var benches = []string{"mcf", "milc", "lbm", "libquantum", "GemsFDTD", "soplex"}

const jobReads = 100

type daemonJob struct {
	name string
	req  server.JobRequest
	key  string // content key; names the job's document in the store
}

// daemon drives fsmemd's coordinator and one worker in-process over
// loopback HTTP, with the worker's journal and disk store live.
type daemon struct {
	seed     uint64
	tmp      string
	lists    [daemonClients][]daemonJob
	want     map[string][]byte // in-process document by job name
	reads    map[string]int64
	spans    *spanLog
	setupErr error

	// Traced-run totals.
	passes                     int
	submitMs, waitMs, resultMs []float64
	hits, jobs                 float64
	hopMs                      []float64
	storeNs, storeGets         float64
	sims                       *simWork
}

func newDaemon(e env) *daemon {
	d := &daemon{seed: e.seed, tmp: filepath.Join(e.out, "tmp"), spans: e.spans,
		want: map[string][]byte{}, reads: map[string]int64{}}
	failed := func(err error) bool {
		if err != nil && d.setupErr == nil {
			d.setupErr = err
		}
		return err != nil
	}
	rng := trace.NewRNG(e.seed ^ 0x6461656d6f6e)
	scheds := config.SchedulerNames()
	var cells []cell
	for i := 0; i < daemonDistinct; i++ {
		exp := config.Experiment{DRAM: "ddr3-1600", Seed: e.seed*1000 + uint64(i) + 1}
		exp.Workload, exp.Cores, exp.Scheduler, exp.Reads =
			benches[rng.Intn(len(benches))], 2, scheds[i%len(scheds)], jobReads
		req := server.JobRequest{Kind: server.KindSimulate, Simulate: &exp}
		_, key, err := server.Canonicalize(&req)
		failed(err)
		j := daemonJob{name: fmt.Sprintf("job%02d-%s-%d-%d-%s", i, exp.Workload, exp.Cores, exp.Reads, exp.Scheduler),
			req: req, key: key}
		c := i % daemonClients
		d.lists[c] = append(d.lists[c], j)
		if (i/daemonClients+1)%3 == 0 {
			// A repeat of one of this client's own earlier jobs: the
			// client waited for it, so it is finished and cached.
			d.lists[c] = append(d.lists[c], d.lists[c][rng.Intn(len(d.lists[c]))])
		}
		cfg, err := exp.ToSimConfig()
		if failed(err) {
			continue
		}
		cells = append(cells, cell{Name: j.name, Cfg: cfg})
		// The same job run in-process: the document every daemon reply
		// must match byte for byte.
		res, err := sim.Simulate(cfg)
		if failed(err) {
			continue
		}
		doc, err := json.Marshal(server.Summarize(cfg, res))
		failed(err)
		d.want[j.name] = append(doc, '\n')
		d.reads[j.name] = res.Run.TotalReads()
	}
	d.sims = newSimWork(cells, e.seed, nil, nil)
	return d
}

func (d *daemon) digests() map[string]string {
	m := map[string]string{}
	for k, v := range d.want {
		m[k] = digestBytes(v)
	}
	return m
}

// node is one in-process fsmemd role listening on loopback.
type node struct {
	url  string
	stop func() error
}

func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return ln, "http://" + ln.Addr().String(), nil
}

// startWorker runs a worker daemon with fsmemd's defaults, except the
// submission rate, which is raised so that no job of the closed loop is
// refused (fsmemd's 50/s would refuse them; a refusal is a failure).
func startWorker(dir string) (node, error) {
	srv, err := server.New(server.Options{
		QueueDepth:      64,
		CacheEntries:    256,
		RatePerSec:      100000,
		Burst:           100000,
		RequestTimeout:  30 * time.Second,
		DrainTimeout:    60 * time.Second,
		DataDir:         dir,
		QuarantineAfter: 3,
	})
	if err != nil {
		return node{}, err
	}
	ln, url, err := listen()
	if err != nil {
		_ = srv.Drain(context.Background()) // nothing was submitted; the listen error is the one to report
		return node{}, err
	}
	return serve(url, func(ctx context.Context) error { return srv.ServeListener(ctx, ln) })
}

// startCoordinator fronts the worker with fsmemd's coordinator defaults;
// VerifySample stays 0, so one worker suffices.
func startCoordinator(worker string) (node, error) {
	c, err := cluster.New(cluster.Options{
		Workers:           []string{worker},
		HeartbeatInterval: 500 * time.Millisecond,
		FailAfter:         2,
		Window:            8,
		MaxAttempts:       8,
		CacheEntries:      256,
		QueueDepth:        64,
		RequestTimeout:    30 * time.Second,
		DrainTimeout:      60 * time.Second,
	})
	if err != nil {
		return node{}, err
	}
	ln, url, err := listen()
	if err != nil {
		_ = c.Drain(context.Background()) // nothing was submitted; the listen error is the one to report
		return node{}, err
	}
	return serve(url, func(ctx context.Context) error { return c.ServeListener(ctx, ln) })
}

// serve runs a ServeListener until stop, which cancels it and waits for
// its drain, and returns once the node answers its health check.
func serve(url string, run func(context.Context) error) (node, error) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx) }()
	n := node{url: url, stop: func() error { cancel(); return <-done }}
	hctx, hcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer hcancel()
	if err := client.New(url, nil).Health(hctx); err != nil {
		_ = n.stop() // the health error is the one to report
		return node{}, fmt.Errorf("health check %s: %w", url, err)
	}
	return n, nil
}

// jobTiming is one job's client-side spans.
type jobTiming struct {
	submit, wait, result time.Duration
	cacheHit             bool
	fails                []string
}

func (t jobTiming) total() time.Duration { return t.submit + t.wait + t.result }

// drive sends every client's job list to base in a closed loop and
// returns the timings in list order per client.
func (d *daemon) drive(base, label string) [daemonClients][]jobTiming {
	var out [daemonClients][]jobTiming
	tr := http.DefaultTransport.(*http.Transport).Clone()
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}
	var wg sync.WaitGroup
	for c := 0; c < daemonClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := client.New(base, hc)
			for _, j := range d.lists[c] {
				out[c] = append(out[c], d.runJob(cl, j, label))
			}
		}(c)
	}
	wg.Wait()
	return out
}

// runJob submits one job, waits for it and fetches its document, which
// must equal the in-process run's.
func (d *daemon) runJob(cl *client.Client, j daemonJob, label string) jobTiming {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var t jobTiming
	t0 := time.Now()
	st, err := cl.Submit(ctx, j.req)
	t1 := time.Now()
	if err == nil && !st.State.Terminal() {
		st, err = cl.Wait(ctx, st.ID, waitPoll)
	}
	t2 := time.Now()
	var doc []byte
	if err == nil && st.State == server.StateDone {
		doc, err = cl.Result(ctx, st.ID)
	}
	t3 := time.Now()
	t.submit, t.wait, t.result = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	t.cacheHit = st.CacheHit
	switch {
	case err != nil:
		t.fails = append(t.fails, err.Error())
	case st.State != server.StateDone:
		t.fails = append(t.fails, fmt.Sprintf("state %s: %s", st.State, st.Error))
	case !bytes.Equal(doc, d.want[j.name]):
		t.fails = append(t.fails, "document differs from the in-process run")
	}
	if d.spans != nil {
		id := d.spans.add(j.name, label+" job", 0, t0, t3, map[string]float64{"cache_hit": b2f(st.CacheHit)})
		d.spans.add(j.name, "submit", id, t0, t1, nil)
		d.spans.add(j.name, "wait", id, t1, t2, nil)
		d.spans.add(j.name, "result", id, t2, t3, nil)
	}
	return t
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func (d *daemon) pass(traced bool) passResult {
	var out passResult
	if d.setupErr != nil {
		out.check("job list", []string{d.setupErr.Error()})
		return out
	}
	if err := os.MkdirAll(d.tmp, 0o755); err != nil {
		out.check("setup", []string{err.Error()})
		return out
	}
	dir, err := os.MkdirTemp(d.tmp, "worker-")
	if err != nil {
		out.check("setup", []string{err.Error()})
		return out
	}
	defer os.RemoveAll(dir)

	t0 := time.Now()
	worker, err := startWorker(dir)
	if err != nil {
		out.check("setup", []string{err.Error()})
		return out
	}
	coord, err := startCoordinator(worker.url)
	if err != nil {
		_ = worker.stop() // the start error is the one to report
		out.check("setup", []string{err.Error()})
		return out
	}
	out.setupNs = float64(time.Since(t0))

	b0, _ := heapCounters()
	t1 := time.Now()
	timings := d.drive(coord.url, "coordinator")
	out.wallNs = float64(time.Since(t1))
	b1, _ := heapCounters()
	out.allocB = float64(b1 - b0)

	stopNodes(&out, coord, worker)

	var all []float64
	for c := 0; c < daemonClients; c++ {
		for i, t := range timings[c] {
			j := d.lists[c][i]
			// A repeat shares its job's name but takes the cache path,
			// so each slot of a client's list is its own job here.
			out.job(fmt.Sprintf("client%d/%03d/%s", c, i, j.name), float64(t.total())/1e6, float64(d.reads[j.name]), t.fails)
			all = append(all, float64(t.total())/1e6)
			if traced {
				d.submitMs = append(d.submitMs, float64(t.submit)/1e6)
				d.waitMs = append(d.waitMs, float64(t.wait)/1e6)
				d.resultMs = append(d.resultMs, float64(t.result)/1e6)
				d.hits += b2f(t.cacheHit)
				d.jobs++
			}
		}
	}
	if traced {
		d.passes++
		out.check("store", d.timeStore(filepath.Join(dir, "store")))
		d.hopMs = append(d.hopMs, median(all)-d.directP50(&out))
	}
	return out
}

// timeStore reopens the worker's disk store after it drained and times a
// verified Get of the document of every job the pass sent.
func (d *daemon) timeStore(dir string) []string {
	st, err := server.OpenStore(dir)
	if err != nil {
		return []string{err.Error()}
	}
	seen := map[string]bool{}
	var jobs []daemonJob
	for _, l := range d.lists {
		for _, j := range l {
			if !seen[j.name] {
				seen[j.name] = true
				jobs = append(jobs, j)
			}
		}
	}
	var fails []string
	for k := 0; k < 3; k++ {
		t := time.Now()
		for _, j := range jobs {
			doc, ok, err := st.Get(j.key)
			switch {
			case k > 0:
			case err != nil:
				fails = append(fails, fmt.Sprintf("store entry of %s: %v", j.name, err))
			case !ok:
				fails = append(fails, "no store entry for "+j.name)
			case !bytes.Equal(doc, d.want[j.name]):
				fails = append(fails, "store entry of "+j.name+" differs from the in-process run")
			}
		}
		d.storeNs += float64(time.Since(t))
		d.storeGets += float64(len(jobs))
	}
	return fails
}

// directP50 sends the same job lists straight to a fresh worker and
// returns their median latency.
func (d *daemon) directP50(out *passResult) float64 {
	dir, err := os.MkdirTemp(d.tmp, "direct-")
	if err != nil {
		out.check("direct worker", []string{err.Error()})
		return 0
	}
	defer os.RemoveAll(dir)
	w, err := startWorker(dir)
	if err != nil {
		out.check("direct worker", []string{err.Error()})
		return 0
	}
	timings := d.drive(w.url, "direct")
	stopNodes(out, w)
	var ms []float64
	var fails []string
	for c := range timings {
		for _, t := range timings[c] {
			ms = append(ms, float64(t.total())/1e6)
			fails = append(fails, t.fails...)
		}
	}
	out.check("direct worker", fails)
	return median(ms)
}

// stopNodes stops the nodes in order. Every job was answered before this
// point, so a stop error is the HTTP shutdown outliving its 5 s deadline;
// it is noted, not counted as a failed job. The coordinator's worker
// clients share http.DefaultTransport, and a connection it dialed but
// never used would hold the worker's shutdown open, so its idle
// connections are closed first.
func stopNodes(out *passResult, nodes ...node) {
	for _, n := range nodes {
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		if err := n.stop(); err != nil {
			out.notes = append(out.notes, fmt.Sprintf("stopping %s: %v", n.url, err))
		}
	}
}

// verify re-runs one job in-process on the dense loop; a traced run also
// measures the simulation layers over the job list, in-process, with the
// same probes the contended and secure workloads use.
func (d *daemon) verify(traced bool) passResult {
	var out passResult
	if len(d.sims.cells) == 0 {
		return out
	}
	out.merge(d.sims.pass(false))
	if traced {
		out.merge(d.sims.pass(true))
	}
	out.merge(d.sims.verify(traced))
	return out
}

func (d *daemon) layers() map[string]float64 {
	m := d.sims.layers()
	if d.passes == 0 {
		return m
	}
	m["client.submit_ms_p50"] = median(d.submitMs)
	m["client.wait_ms_p50"] = median(d.waitMs)
	m["client.result_ms_p50"] = median(d.resultMs)
	m["server.cache_hit_ratio"] = ratio(d.hits, d.jobs)
	m["cluster.hop_ms_p50"] = median(d.hopMs)
	m["server.store_get_ns"] = ratio(d.storeNs, d.storeGets)
	return m
}
