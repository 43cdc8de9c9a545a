// Command perfbench is the repository benchmark. It drives the simulator
// only through its public entry points (sim.New/System.Run,
// experiments.All, audit.Run, and the fsmemd worker and coordinator
// handlers through server/client) and measures host time.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload contended --seed 42 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload all        # every workload, one process
//
// Workloads (see layers.json for the layers each one exercises and
// bypasses, and which end-to-end metric each layer metric should move):
//
//	contended  FR-FCFS Baseline and TP cells; queue scans and DRAM checks dominate
//	secure     Fixed Service cells, the Section-6 machine and an idle FS cell
//	campaign   the figure sweep at a reduced read budget, then two audits
//	daemon     a closed loop of 2 clients through a coordinator and one worker
//
// Simulated statistics are the correctness check, never a metric: every
// cell's result digest must match the pinned digest at the default seed
// (pinned.json), and at any seed the runtime monitor, truncation, the
// dense loop and (for the daemon) an in-process re-run must agree. Each
// pass over a work list and each job in it is timed; times come from
// each job's fastest run, or for the daemon from the fastest pass and
// each job's median run (see endToEndMetrics).
//
// --trace 1 runs one untraced pass, then passes with the layer probes
// installed from outside (a scheduler wrapper via Controller.SetScheduler,
// a generator wrapper via Config.StreamFactory, OnCell and Progress hooks,
// per-request client timing), and reports the per-layer metrics. Spans
// and one record per run, stamped with the machine, are written under
// --out.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
//
// perfbench is a Go module of its own, outside the repository's test
// suite. Its self-tests (cd perfbench && go test ./...) show that a
// perturbed digest, a forced truncation, an FS fault plan and a daemon
// reply that differs from the in-process run each raise the error rate,
// and that the traced run reproduces the untraced digests and
// fast-forward jumps. Refresh pinned.json with --print-digests at the
// default seed after a change that is meant to alter simulated results.
package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed whose digests pinned.json holds.
const defaultSeed = 42

//go:embed pinned.json
var pinnedJSON []byte

//go:embed layers.json
var layersJSON []byte

// passResult is what one pass over a workload's fixed work list measured,
// or what a set of untimed checks found.
type passResult struct {
	setupNs, wallNs   float64
	reads, cycles     float64
	allocB            float64
	jobMs, jobReads   []float64
	jobNames          []string
	attempted, failed int
	failures          []string
	notes             []string // anomalies that fail no check
}

// check counts one checked item (a cell, a job, a verdict) and reports
// whether it passed.
func (p *passResult) check(name string, fails []string) bool {
	p.attempted++
	if len(fails) == 0 {
		return true
	}
	p.failed++
	for _, f := range fails {
		p.failures = append(p.failures, name+": "+f)
	}
	return false
}

// job counts one checked unit of work with its latency and the simulated
// demand reads it delivered; a failed job's latency counts as missing
// every percentile.
func (p *passResult) job(name string, ms, reads float64, fails []string) {
	if !p.check(name, fails) {
		ms = failedLatency
	}
	p.jobMs = append(p.jobMs, ms)
	p.jobReads = append(p.jobReads, reads)
	p.jobNames = append(p.jobNames, name)
	p.reads += reads
}

func (p *passResult) merge(o passResult) {
	p.attempted += o.attempted
	p.failed += o.failed
	p.failures = append(p.failures, o.failures...)
	p.notes = append(p.notes, o.notes...)
}

// bench is one benchmark workload.
type bench interface {
	// pass runs the fixed work list once; traced installs the layer probes.
	pass(traced bool) passResult
	// verify runs the once-per-run checks outside any timed region.
	verify(traced bool) passResult
	// layers returns the per-layer metrics the traced passes measured.
	layers() map[string]float64
	// digests returns the digest of every checked result, by name.
	digests() map[string]string
}

// env is what a workload is built from.
type env struct {
	seed  uint64
	pins  map[string]string // digests pinned at the default seed
	spans *spanLog          // nil unless traced
	out   string            // directory the run may write under
}

type workloadDef struct {
	name string
	// warm runs one unmeasured pass first, so caches fill and lazy set-up
	// finishes before timing. The campaign's pass is long and starts
	// cold by nature (a fresh runner each time), so it has none.
	warm bool
	// concurrent marks a workload whose jobs overlap within a pass and
	// wait on each other and on polls (see endToEndMetrics).
	concurrent bool
	make       func(e env) bench
}

var workloads = []workloadDef{
	{"contended", true, false, func(e env) bench { return newSimWork(contendedCells(e.seed), e.seed, e.pins, e.spans) }},
	{"secure", true, false, func(e env) bench { return newSimWork(secureCells(e.seed), e.seed, e.pins, e.spans) }},
	{"campaign", false, false, func(e env) bench { return newCampaign(e.seed, e.pins, e.spans) }},
	{"daemon", true, true, func(e env) bench { return newDaemon(e) }},
}

type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run, in print order.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"ns_per_read", "ns"},
	{"alloc_bytes_per_read", "B"},
	{"jobs_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"job_p95_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics of a traced run, in print order. A workload
// that bypasses a layer reports 0 for it and names it on a note line.
var perLayer = []metricDef{
	{"sched.tick_share", "ratio"},
	{"sched.ns_per_tick", "ns"},
	{"sched.ticks", "count"},
	{"sched.next_event_share", "ratio"},
	{"sched.next_event_calls", "count"},
	{"sim.ff_skip_ratio", "ratio"},
	{"sim.ff_jumps", "count"},
	{"sim.self_share", "ratio"},
	{"sim.ns_per_bus_cycle", "ns"},
	{"workload.next_share", "ratio"},
	{"dram.replay_ns_per_cmd", "ns"},
	{"fault.monitor_replay_ns_per_cmd", "ns"},
	{"fault.monitor_replay_allocs_per_cmd", "count"},
	{"mem.fabric_route_ns", "ns"},
	{"dram.cmds_per_read", "count"},
	{"core.useful_slot_ratio", "ratio"},
	{"experiments.cells", "count"},
	{"experiments.cells_per_s", "1/s"},
	{"parallel.cpu_util", "ratio"},
	{"experiments.sweep_s", "s"},
	{"audit.campaign_s", "s"},
	{"audit.evals", "count"},
	{"audit.ns_per_eval", "ns"},
	{"client.submit_ms_p50", "ms"},
	{"client.wait_ms_p50", "ms"},
	{"client.result_ms_p50", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"cluster.hop_ms_p50", "ms"},
	{"server.store_get_ns", "ns"},
	{"trace.overhead_s", "s"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// machine identifies where a run was measured; numbers from different
// machines are never compared.
type machine struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func main() {
	name := flag.String("workload", "all", "contended, secure, campaign, daemon, or all")
	seed := flag.Uint64("seed", defaultSeed, "workload seed; digests are pinned at the default")
	seconds := flag.Float64("seconds", 30, "measured time per run")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer run")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for run records and spans")
	printDigests := flag.Bool("print-digests", false, "print every checked digest to stderr as JSON (to refresh pinned.json)")
	flag.Parse()
	if *traceFlag != 0 && *traceFlag != 1 {
		fatalf("--trace must be 0 or 1")
	}
	var defs []workloadDef
	for _, d := range workloads {
		if *name == "all" || *name == d.name {
			defs = append(defs, d)
		}
	}
	if len(defs) == 0 {
		fatalf("unknown workload %q", *name)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatalf("%v", err)
	}
	var pinned map[string]map[string]string
	if err := json.Unmarshal(pinnedJSON, &pinned); err != nil {
		fatalf("pinned.json: %v", err)
	}
	var layerDocs map[string]json.RawMessage
	if err := json.Unmarshal(layersJSON, &layerDocs); err != nil {
		fatalf("layers.json: %v", err)
	}
	m := stampMachine()
	fmt.Printf("machine: gomaxprocs=%d nproc=%d cpu=%q go=%s commit=%s\n",
		m.GOMAXPROCS, m.NProc, m.CPUModel, m.GoVersion, m.Commit)

	traced := *traceFlag == 1
	budget := time.Duration(*seconds * float64(time.Second))
	total := result{Correct: true, Metrics: map[string]metricValue{}}
	var last result
	for _, d := range defs {
		// At the default seed every checked digest must be pinned: a
		// workload with no entry gets an empty set, so each result fails.
		var pins map[string]string
		if *seed == defaultSeed {
			pins = pinned[d.name]
			if pins == nil {
				pins = map[string]string{}
			}
		}
		res, rec := runWorkload(d, *seed, budget, traced, pins, *out, *printDigests)
		rec.Machine = m
		rec.Layers = layerDocs[d.name]
		if err := appendRecord(filepath.Join(*out, "runs.jsonl"), rec); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: run record: %v\n", err)
		}
		b, _ := json.Marshal(res)
		fmt.Printf("result %s %s\n", d.name, b)
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[d.name+"."+k] = v
		}
		last = res
	}
	if len(defs) > 1 {
		last = total
	}
	b, err := json.Marshal(last)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(b))
}

// record is one run as appended to runs.jsonl.
type record struct {
	Time      string                 `json:"time"`
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Passes    int                    `json:"passes"`
	Machine   machine                `json:"machine"`
	Layers    json.RawMessage        `json:"layers"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Notes     []string               `json:"notes,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runWorkload runs one workload for the budget and prints its metrics.
func runWorkload(d workloadDef, seed uint64, budget time.Duration, traced bool,
	pins map[string]string, out string, printDigests bool) (result, record) {
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%v\n", d.name, seed, budget.Seconds(), traced)
	var spans *spanLog
	if traced {
		spans = newSpanLog()
	}
	w := d.make(env{seed: seed, pins: pins, spans: spans, out: out})
	var all passResult
	if d.warm {
		all.merge(w.pass(false))
	}
	// A traced run alternates untraced and traced passes, so the tracing
	// overhead compares passes from the same stretch of machine time.
	var untraced, measured []passResult
	start := time.Now()
	for {
		t := time.Now()
		if traced {
			p := w.pass(false)
			untraced = append(untraced, p)
			all.merge(p)
		}
		p := w.pass(traced)
		took := time.Since(t)
		measured = append(measured, p)
		all.merge(p)
		// Start another pass while at least half of it fits, so that a run
		// of long passes (the campaign's take seconds) gets the same number
		// of them whether the last one would end just before or just after
		// the budget; the fastest run of a job depends on how many it had.
		if time.Since(start)+took/2 > budget {
			break
		}
	}
	// Reduce before verify, so the peak resident set is that of the
	// measured passes, not of the seed-dependent checks that follow.
	latencyPasses := measured
	if traced {
		latencyPasses = untraced
	}
	e2e := endToEndMetrics(latencyPasses, d.concurrent)
	all.merge(w.verify(traced))

	res := result{Correct: all.failed == 0, Attempted: all.attempted, Failed: all.failed, Metrics: map[string]metricValue{}}
	if traced {
		fmt.Printf("passes: %d traced, %d untraced, alternating\n", len(measured), len(untraced))
	} else {
		fmt.Printf("passes: %d measured\n", len(measured))
	}
	for _, md := range endToEnd {
		v := e2e[md.name]
		label := "metric"
		if traced {
			label = "untraced"
		} else {
			res.Metrics[md.name] = metricValue{v, md.unit}
		}
		fmt.Printf("%s %s %.6g %s\n", label, md.name, v, md.unit)
	}
	fmt.Printf("metric error_rate %.6g ratio (failed %d of %d attempted)\n",
		ratio(float64(all.failed), float64(all.attempted)), all.failed, all.attempted)
	var walls, pooled []float64
	distinct := map[string]bool{}
	for _, p := range latencyPasses {
		walls = append(walls, p.wallNs/1e9)
		pooled = append(pooled, p.jobMs...)
		for _, n := range p.jobNames {
			distinct[n] = true
		}
	}
	fmt.Printf("note: pass wall fastest %.6g s, median %.6g s, slowest %.6g s over %d passes\n",
		minOf(walls), median(walls), maxOf(walls), len(walls))
	each := "fastest"
	if d.concurrent {
		each = "median"
	}
	fmt.Printf("note: job latency percentiles over the %s run of each of %d jobs; over all %d runs p50 %.6g ms, p95 %.6g ms\n",
		each, len(distinct), len(pooled), quantile(pooled, 0.5), quantile(pooled, 0.95))
	if traced {
		layers := w.layers()
		layers["trace.overhead_s"] = endToEndMetrics(measured, d.concurrent)["wall_s"] - e2e["wall_s"]
		var bypassed []string
		for _, md := range perLayer {
			v, ok := layers[md.name]
			if !ok {
				bypassed = append(bypassed, md.name)
			}
			res.Metrics[md.name] = metricValue{v, md.unit}
			fmt.Printf("layer %s %.6g %s\n", md.name, v, md.unit)
		}
		fmt.Printf("note: tracing overhead %.4g s per pass, %.1f%% of the untraced wall (traced minus untraced wall_s)\n",
			layers["trace.overhead_s"], 100*ratio(layers["trace.overhead_s"], e2e["wall_s"]))
		if len(bypassed) > 0 {
			fmt.Printf("note: reported as 0, not exercised by %s or not separable from outside (see layers.json): %s\n",
				d.name, strings.Join(bypassed, " "))
		}
		path := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.json", d.name, seed))
		if err := spans.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: spans: %v\n", err)
		} else {
			fmt.Printf("spans: %d written to %s\n", len(spans.spans), path)
		}
	}
	failures, notes := firstN(all.failures, 20), firstN(all.notes, 20)
	for _, f := range failures {
		fmt.Printf("failure: %s\n", f)
	}
	for _, n := range notes {
		fmt.Printf("note: %s\n", n)
	}
	if printDigests {
		b, _ := json.MarshalIndent(map[string]map[string]string{d.name: w.digests()}, "", "  ")
		fmt.Fprintln(os.Stderr, string(b))
	}
	rec := record{Time: time.Now().UTC().Format(time.RFC3339), Workload: d.name, Seed: seed,
		Seconds: budget.Seconds(), Trace: traced, Passes: len(measured), Correct: res.Correct,
		Attempted: res.Attempted, Failed: res.Failed, Failures: failures, Notes: notes, Metrics: res.Metrics}
	return res, rec
}

// firstN keeps the first n lines and says how many it dropped.
func firstN(lines []string, n int) []string {
	if len(lines) <= n {
		return lines
	}
	return append(lines[:n:n], fmt.Sprintf("... %d more", len(lines)-n))
}

// endToEndMetrics reduces measured passes to the end-to-end metrics. A
// workload that runs its jobs one after another is CPU-bound, does the same
// work every pass, and the host only ever slows it down: on a shared
// 2-vCPU host its passes swing by half within seconds, and slow spells
// last tens of seconds. So each job's time is its fastest run, and the
// wall time is the sum of those, which needs each job, not a whole pass,
// to meet a fast spell; across runs this moves far less than the median
// pass does. A concurrent workload's jobs wait on polls and race each
// other: its wall time is the fastest pass, whose 64 jobs per client even
// out the luck of single races, but a single job's fastest run is a lucky
// race, so each job's latency is its median run. Job latency percentiles
// are over jobs; a job that failed in any pass counts as missing every
// percentile. Set-up time and allocation per read are medians over passes.
func endToEndMetrics(passes []passResult, concurrent bool) map[string]float64 {
	var wall, setup, allocRead []float64
	byJob := map[string][]float64{}
	jobReads := map[string]float64{}
	for _, p := range passes {
		for i, name := range p.jobNames {
			byJob[name] = append(byJob[name], p.jobMs[i])
			jobReads[name] = p.jobReads[i]
		}
		wall = append(wall, p.wallNs/1e9)
		setup = append(setup, p.setupNs/1e9)
		allocRead = append(allocRead, ratio(p.allocB, p.reads))
	}
	typical := minOf
	if concurrent {
		typical = median
	}
	var jobs []float64
	var sumMs, readMs, reads float64
	for name, ms := range byJob {
		t := typical(ms)
		sumMs += t
		if jobReads[name] > 0 {
			readMs += t
			reads += jobReads[name]
		}
		if maxOf(ms) == failedLatency {
			t = failedLatency
		}
		jobs = append(jobs, t)
	}
	wallS, nsPerRead := sumMs/1e3, ratio(readMs*1e6, reads)
	if concurrent {
		wallS = minOf(wall)
		nsPerRead = ratio(wallS*1e9, reads)
	}
	return map[string]float64{
		"wall_s":               wallS,
		"setup_s":              median(setup),
		"ns_per_read":          nsPerRead,
		"alloc_bytes_per_read": median(allocRead),
		"jobs_per_s":           ratio(float64(len(jobs)), wallS),
		"job_p50_ms":           quantile(jobs, 0.5),
		"job_p95_ms":           quantile(jobs, 0.95),
		"peak_rss_mb":          peakRSSMB(),
	}
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func stampMachine() machine {
	m := machine{GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
		CPUModel: cpuModel(), Commit: os.Getenv("PERFBENCH_COMMIT")}
	if m.Commit == "" {
		m.Commit = sourceDigest()
	}
	return m
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest stands in for the commit when the tree is not a git
// checkout: a hash over every Go source and module file under the working
// directory, skipping hidden directories such as the build output.
func sourceDigest() string {
	var paths []string
	_ = filepath.WalkDir(".", func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry just drops out of the digest
		}
		if e.IsDir() && p != "." && strings.HasPrefix(e.Name(), ".") {
			return filepath.SkipDir
		}
		if !e.IsDir() && (strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "go.mod") || strings.HasSuffix(p, ".json")) {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	var all []byte
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		all = append(all, p...)
		all = append(all, 0)
		all = append(all, digestBytes(b)...)
	}
	return "src-sha256:" + digestBytes(all)[:16]
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
