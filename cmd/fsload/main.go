// Command fsload is a closed-loop load generator for fsmemd: a fixed
// number of in-flight clients each submit a job, wait for it to reach
// a terminal state, and record the end-to-end latency. It reports
// throughput and latency percentiles, so the daemon's scaling and
// cache-hit claims are measurable rather than asserted.
//
// Usage:
//
//	fsload -addr http://127.0.0.1:8377                 # 200 simulate jobs, 8 clients
//	fsload -n 1000 -c 32 -spread 16                    # 16 distinct configs (cache mix)
//	fsload -spread 1                                   # one config: pure cache-hit path
//	fsload -retries 8                                  # retry backpressure/conn errors
//	fsload -report fsload_report.json                  # machine-readable report
//	fsload -chaos-kill -fsmemd-bin ./fsmemd            # SIGKILL + restart mid-run
//
// With -spread 1 every request after the first is answered from the
// daemon's result cache, which is the hot path BenchmarkServerCacheHit
// pins. Larger -spread values force distinct simulations and exercise
// the queue and worker pool.
//
// With -chaos-kill fsload manages its own fsmemd child (started with a
// -data-dir so the job journal and result store are live), SIGKILLs it
// once roughly half the requests have been dispatched, restarts it over
// the same data directory, and demands that every request still
// completes — the end-to-end demonstration that an accepted job
// survives an unclean daemon death. Client retries are forced on in
// this mode so the downtime window is ridden out with backoff.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fsmem/internal/config"
	"fsmem/internal/server"
	"fsmem/internal/server/client"
)

type report struct {
	Requests   int     `json:"requests"`
	Completed  int     `json:"completed"`
	CacheHits  int     `json:"cache_hits"`
	Rejected   int     `json:"rejected"` // 429/503 backpressure responses
	Failed     int     `json:"failed"`
	Elapsed    float64 `json:"elapsed_seconds"`
	Throughput float64 `json:"throughput_rps"`
	// Retries and RetryWaitSeconds come from the client's retry layer:
	// how many attempts were re-issued and how long the load loop spent
	// honoring backoff (including server Retry-After hints).
	Retries          int64   `json:"retries"`
	RetryWaitSeconds float64 `json:"retry_wait_seconds"`
	ChaosKills       int     `json:"chaos_kills,omitempty"`
	// PerWorker breaks completions down by the worker that served each
	// job (status documents carry the worker name when the daemon has
	// one — always, through a cluster coordinator). Empty against an
	// unnamed single-node daemon.
	PerWorker map[string]int `json:"per_worker,omitempty"`
	LatencyMS struct {
		P50 float64 `json:"p50"`
		P90 float64 `json:"p90"`
		P95 float64 `json:"p95"`
		P99 float64 `json:"p99"`
		Max float64 `json:"max"`
	} `json:"latency_ms"`
}

// daemon is a chaos-managed fsmemd child process.
type daemon struct {
	bin     string
	addr    string
	dataDir string
	cmd     *exec.Cmd
}

func (d *daemon) start() error {
	cmd := exec.Command(d.bin,
		"-addr", d.addr,
		"-data-dir", d.dataDir,
		"-queue", "256",
		"-rate", "100000",
	)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return err
	}
	d.cmd = cmd
	return nil
}

// kill SIGKILLs the child — no drain, no warning — and reaps it.
func (d *daemon) kill() error {
	if d.cmd == nil || d.cmd.Process == nil {
		return fmt.Errorf("fsmemd child not running")
	}
	if err := d.cmd.Process.Kill(); err != nil {
		return err
	}
	d.cmd.Wait() // reap; the error is the kill signal, not a failure
	d.cmd = nil
	return nil
}

func (d *daemon) stop() {
	if d.cmd != nil && d.cmd.Process != nil {
		d.cmd.Process.Signal(os.Interrupt)
		d.cmd.Wait()
		d.cmd = nil
	}
}

// waitHealthy polls /healthz until the daemon answers.
func waitHealthy(ctx context.Context, cl *client.Client, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for {
		hctx, cancel := context.WithTimeout(ctx, time.Second)
		err := cl.Health(hctx)
		cancel()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon not healthy after %s: %w", budget, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8377", "fsmemd base URL")
	n := flag.Int("n", 200, "total requests")
	c := flag.Int("c", 8, "concurrent closed-loop clients")
	spread := flag.Int("spread", 4, "distinct configs to cycle through (1 = pure cache-hit path)")
	wl := flag.String("workload", "mcf", "workload for generated simulate jobs")
	sched := flag.String("sched", "fs_bp", "scheduler for generated simulate jobs")
	cores := flag.Int("cores", 2, "cores for generated simulate jobs")
	reads := flag.Int64("reads", 500, "reads per generated simulate job")
	poll := flag.Duration("poll", 10*time.Millisecond, "status re-check interval when a job's event stream breaks or is refused (waits follow the stream)")
	timeout := flag.Duration("timeout", 5*time.Minute, "overall deadline")
	retries := flag.Int("retries", 0, "client retry attempts per request (0 = no retries; chaos-kill defaults to 10)")
	reportPath := flag.String("report", "", "write the JSON report to this file")
	chaosKill := flag.Bool("chaos-kill", false, "spawn a child fsmemd, SIGKILL it mid-run, restart it, and require zero lost jobs")
	fsmemdBin := flag.String("fsmemd-bin", "fsmemd", "fsmemd binary for -chaos-kill")
	dataDir := flag.String("data-dir", "", "durability dir for the -chaos-kill child (default: temp dir)")
	flag.Parse()

	if *spread < 1 {
		*spread = 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	var child *daemon
	if *chaosKill {
		if *retries == 0 {
			*retries = 10
		}
		dir := *dataDir
		if dir == "" {
			var err error
			dir, err = os.MkdirTemp("", "fsload-chaos-")
			if err != nil {
				fmt.Fprintln(os.Stderr, "fsload:", err)
				os.Exit(2)
			}
			defer os.RemoveAll(dir)
		}
		hostPort, err := freeAddr()
		if err != nil {
			fmt.Fprintln(os.Stderr, "fsload:", err)
			os.Exit(2)
		}
		child = &daemon{bin: *fsmemdBin, addr: hostPort, dataDir: dir}
		if err := child.start(); err != nil {
			fmt.Fprintf(os.Stderr, "fsload: starting %s: %v\n", *fsmemdBin, err)
			os.Exit(2)
		}
		defer child.stop()
		*addr = "http://" + hostPort
		fmt.Fprintf(os.Stderr, "fsload: chaos child %s on %s (data dir %s)\n", *fsmemdBin, hostPort, dir)
	}

	cl := client.New(*addr, nil)
	if *retries > 1 {
		cl.EnableRetry(client.RetryPolicy{MaxAttempts: *retries, Seed: 1})
	}
	if err := waitHealthy(ctx, cl, 10*time.Second); err != nil {
		fmt.Fprintf(os.Stderr, "fsload: daemon not reachable at %s: %v\n", *addr, err)
		os.Exit(2)
	}

	reqFor := func(i int) server.JobRequest {
		e := config.Default()
		e.Workload = *wl
		e.Scheduler = *sched
		e.Cores = *cores
		e.Reads = *reads
		// Distinct seeds address distinct cache entries; modulo spread
		// keeps the working set bounded so hits dominate once warm.
		e.Seed = uint64(1 + i%*spread)
		return server.JobRequest{Kind: server.KindSimulate, Simulate: &e}
	}

	var (
		mu        sync.Mutex
		latencies []time.Duration
		rep       report
		next      atomic.Int64
		failures  []string
	)

	// Chaos: once roughly half the requests have been dispatched,
	// SIGKILL the child and restart it over the same data directory.
	// The in-flight clients ride out the downtime via retry/backoff.
	chaosDone := make(chan struct{})
	if child != nil {
		go func() {
			defer close(chaosDone)
			for next.Load() < int64(*n)/2 {
				select {
				case <-ctx.Done():
					return
				case <-time.After(5 * time.Millisecond):
				}
			}
			fmt.Fprintln(os.Stderr, "fsload: chaos: SIGKILL fsmemd")
			if err := child.kill(); err != nil {
				fmt.Fprintln(os.Stderr, "fsload: chaos kill:", err)
				return
			}
			mu.Lock()
			rep.ChaosKills++
			mu.Unlock()
			if err := child.start(); err != nil {
				fmt.Fprintln(os.Stderr, "fsload: chaos restart:", err)
				return
			}
			fmt.Fprintln(os.Stderr, "fsload: chaos: fsmemd restarted")
		}()
	} else {
		close(chaosDone)
	}

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= *n || ctx.Err() != nil {
					return
				}
				t0 := time.Now()
				st, err := cl.Submit(ctx, reqFor(i))
				if err == nil && !st.State.Terminal() {
					st, err = cl.Wait(ctx, st.ID, *poll)
				}
				lat := time.Since(t0)
				mu.Lock()
				switch {
				case err != nil:
					if ae, ok := err.(*client.APIError); ok && (ae.StatusCode == 429 || ae.StatusCode == 503) {
						rep.Rejected++
					} else {
						rep.Failed++
						failures = append(failures, fmt.Sprintf("request %d: %v", i, err))
					}
				case st.State == server.StateDone:
					rep.Completed++
					if st.CacheHit {
						rep.CacheHits++
					}
					if st.Worker != "" {
						if rep.PerWorker == nil {
							rep.PerWorker = map[string]int{}
						}
						rep.PerWorker[st.Worker]++
					}
					latencies = append(latencies, lat)
				default:
					rep.Failed++
					failures = append(failures, fmt.Sprintf("request %d: terminal state %q (job %s): %s", i, st.State, st.ID, st.Error))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	<-chaosDone
	elapsed := time.Since(start)

	rep.Requests = *n
	rep.Elapsed = elapsed.Seconds()
	if elapsed > 0 {
		rep.Throughput = float64(rep.Completed) / elapsed.Seconds()
	}
	retryCount, retryWait := cl.RetryStats()
	rep.Retries = retryCount
	rep.RetryWaitSeconds = retryWait.Seconds()
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(q float64) float64 {
		if len(latencies) == 0 {
			return 0
		}
		idx := int(q * float64(len(latencies)-1))
		return float64(latencies[idx]) / float64(time.Millisecond)
	}
	rep.LatencyMS.P50 = pct(0.50)
	rep.LatencyMS.P90 = pct(0.90)
	rep.LatencyMS.P95 = pct(0.95)
	rep.LatencyMS.P99 = pct(0.99)
	if len(latencies) > 0 {
		rep.LatencyMS.Max = float64(latencies[len(latencies)-1]) / float64(time.Millisecond)
	}

	fmt.Printf("fsload: %d requests, %d clients, spread %d\n", rep.Requests, *c, *spread)
	fmt.Printf("  completed   %d (%d cache hits)\n", rep.Completed, rep.CacheHits)
	fmt.Printf("  rejected    %d (backpressure)\n", rep.Rejected)
	fmt.Printf("  failed      %d\n", rep.Failed)
	fmt.Printf("  retries     %d (%.2fs waiting, Retry-After honored)\n", rep.Retries, rep.RetryWaitSeconds)
	if rep.ChaosKills > 0 {
		fmt.Printf("  chaos kills %d (SIGKILL + restart, same data dir)\n", rep.ChaosKills)
	}
	fmt.Printf("  elapsed     %.2fs\n", rep.Elapsed)
	fmt.Printf("  throughput  %.1f jobs/s\n", rep.Throughput)
	fmt.Printf("  latency ms  p50=%.2f p90=%.2f p95=%.2f p99=%.2f max=%.2f\n",
		rep.LatencyMS.P50, rep.LatencyMS.P90, rep.LatencyMS.P95, rep.LatencyMS.P99, rep.LatencyMS.Max)
	if len(rep.PerWorker) > 0 {
		names := make([]string, 0, len(rep.PerWorker))
		for w := range rep.PerWorker {
			names = append(names, w)
		}
		sort.Strings(names)
		fmt.Printf("  per worker\n")
		for _, w := range names {
			fmt.Printf("    %-40s %d completed\n", w, rep.PerWorker[w])
		}
	}
	for i, f := range failures {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "fsload: ... and %d more failures\n", len(failures)-10)
			break
		}
		fmt.Fprintln(os.Stderr, "fsload: failure:", f)
	}

	if *reportPath != "" {
		f, err := os.Create(*reportPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fsload:", err)
			os.Exit(1)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		err = enc.Encode(rep)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "fsload:", err)
			os.Exit(1)
		}
	}
	if rep.Failed > 0 {
		os.Exit(1)
	}
	if *chaosKill {
		if rep.ChaosKills == 0 {
			fmt.Fprintln(os.Stderr, "fsload: chaos-kill requested but no kill happened")
			os.Exit(1)
		}
		if rep.Completed != rep.Requests {
			fmt.Fprintf(os.Stderr, "fsload: chaos-kill lost jobs: %d/%d completed\n", rep.Completed, rep.Requests)
			os.Exit(1)
		}
		fmt.Println("  chaos-kill  PASS: zero lost jobs across SIGKILL + restart")
	}
}
