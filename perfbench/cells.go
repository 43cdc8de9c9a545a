package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"fsmem/internal/addr"
	"fsmem/internal/core"
	"fsmem/internal/dram"
	"fsmem/internal/fault"
	"fsmem/internal/mem"
	"fsmem/internal/obs"
	"fsmem/internal/sim"
	"fsmem/internal/stats"
	"fsmem/internal/trace"
	"fsmem/internal/workload"
)

// cellReads is the demand-read target of every contended and secure cell
// (per channel on the colored Section-6 machine). It keeps one pass over a
// cell list near one second on a 2-vCPU host, so a run holds many passes.
const cellReads = 5000

// cell is one simulation of a workload's fixed work list.
type cell struct {
	Name string
	Cfg  sim.Config
}

func rateCell(name, bench string, cores int, k sim.SchedulerKind, seed uint64) cell {
	mix, err := workload.Rate(bench, cores)
	if err != nil {
		panic(err) // the benchmark names are fixed; a miss is a bug here
	}
	cfg := sim.DefaultConfig(mix, k)
	cfg.Seed = seed
	cfg.TargetReads = cellReads
	return cell{Name: name, Cfg: cfg}
}

func withFabric(c cell, channels int, r addr.Routing) cell {
	c.Cfg.Channels = channels
	c.Cfg.Routing = r
	return c
}

// contendedCells is the FR-FCFS-heavy list: queue scans and the DRAM timing
// check carry the time, and fast-forward finds nothing to skip.
func contendedCells(seed uint64) []cell {
	return []cell{
		rateCell("milc8-baseline", "milc", 8, sim.Baseline, seed),
		rateCell("mcf8-baseline", "mcf", 8, sim.Baseline, seed),
		rateCell("lbm8-baseline", "lbm", 8, sim.Baseline, seed),
		rateCell("milc8-tp_bp", "milc", 8, sim.TPBank, seed),
		withFabric(rateCell("milc8-baseline-4ch-interleaved", "milc", 8, sim.Baseline, seed), 4, addr.RouteInterleaved),
	}
}

// secureCells is the Fixed Service list: slot planning, the monitor's
// schedule check and the fast-forward horizon carry the time; no Baseline
// code runs.
func secureCells(seed uint64) []cell {
	return []cell{
		rateCell("milc8-fs_rp", "milc", 8, sim.FSRankPart, seed),
		rateCell("milc8-fs_reordered_bp", "milc", 8, sim.FSReorderedBank, seed),
		rateCell("milc8-fs_np_optimized", "milc", 8, sim.FSNoPartTriple, seed),
		withFabric(rateCell("s6-milc32-fs_rp-4ch-colored", "milc", 32, sim.FSRankPart, seed), 4, addr.RouteColored),
		rateCell("xalancbmk2-fs_np", "xalancbmk", 2, sim.FSNoPart, seed),
	}
}

// probe accumulates what the traced run's wrappers measure inside one
// simulation. A simulation runs on one goroutine, so plain fields suffice.
//
// Only every sampleEvery-th call is timed, so the wrappers' own clock reads
// stay a small part of the run; the timed share is scaled up to all calls.
type probe struct {
	tickNs, ticks     int64 // tickNs covers only the sampled ticks
	nextNs, nextCalls int64
	streamNs, streams int64
	// refs holds the first addresses each core generated, tagged with the
	// global domain, for timing the fabric router over the cell's own
	// address stream.
	refs    []routedRef
	keep    int // refs to keep per stream
	created int // streams handed out so far = the next global domain
}

type routedRef struct {
	domain int
	a      dram.Address
}

// timedSched forwards every call to the real scheduler and times Tick and
// NextEvent. Tick time includes the DRAM checks and monitor calls the
// scheduler makes from inside Tick.
type timedSched struct {
	inner mem.Scheduler
	es    mem.EventSource
	ms    obs.MetricSource
	p     *probe
}

func (t *timedSched) Name() string { return t.inner.Name() }

// sampleEvery is the wrappers' timing sample interval (a power of two).
const sampleEvery = 8

// sampled reports whether the n-th call (counting from 1) is timed.
func sampled(n int64) bool { return n&(sampleEvery-1) == 0 }

func (t *timedSched) Tick(c *mem.Controller) {
	t.p.ticks++
	if !sampled(t.p.ticks) {
		t.inner.Tick(c)
		return
	}
	s := time.Now()
	t.inner.Tick(c)
	t.p.tickNs += int64(time.Since(s))
}

// NextEvent forwards to the scheduler's horizon. A scheduler without one
// gets the controller's own fallback (the current cycle), so the wrapper
// never changes what fast-forward may skip.
func (t *timedSched) NextEvent(c *mem.Controller) int64 {
	if t.es == nil {
		return c.Cycle
	}
	t.p.nextCalls++
	if !sampled(t.p.nextCalls) {
		return t.es.NextEvent(c)
	}
	s := time.Now()
	h := t.es.NextEvent(c)
	t.p.nextNs += int64(time.Since(s))
	return h
}

func (t *timedSched) ObsMetrics(emit func(name string, value float64)) {
	if t.ms != nil {
		t.ms.ObsMetrics(emit)
	}
}

// timedStream times the synthetic generator's Next.
type timedStream struct {
	inner  trace.Stream
	p      *probe
	domain int
	keep   int
}

func (s *timedStream) Next() trace.Ref {
	var r trace.Ref
	s.p.streams++
	if sampled(s.p.streams) {
		t := time.Now()
		r = s.inner.Next()
		s.p.streamNs += int64(time.Since(t))
	} else {
		r = s.inner.Next()
	}
	if s.keep > 0 {
		s.keep--
		s.p.refs = append(s.p.refs, routedRef{s.domain, r.Addr})
	}
	return r
}

// streamFactory builds the same generator sim.New would, wrapped in a
// timer. sim.New creates streams in global-domain order (channel-major
// under colored routing), so the creation count is the global domain.
func (p *probe) streamFactory(cfg sim.Config) func(int, addr.Space, uint64) trace.Stream {
	return func(d int, space addr.Space, seed uint64) trace.Stream {
		global := p.created
		p.created++
		g := workload.NewGenerator(cfg.Mix.Profiles[global], space, cfg.DRAM, seed)
		return &timedStream{inner: g, p: p, domain: global, keep: p.keep}
	}
}

// install wraps the scheduler of every controller of s.
func (p *probe) install(s *sim.System) {
	ctls := []*mem.Controller{s.Controller()}
	if f := s.Fabric(); f != nil {
		ctls = f.Controllers()
	}
	for _, c := range ctls {
		inner := c.Scheduler()
		w := &timedSched{inner: inner, p: p}
		w.es, _ = inner.(mem.EventSource)
		w.ms, _ = inner.(obs.MetricSource)
		c.SetScheduler(w)
	}
}

// cellRun is one simulated cell: its timings, counts and result.
type cellRun struct {
	res             sim.Result
	err             error
	setupNs, runNs  int64
	ffJumps, ffSkip int64
	reads, cycles   int64
	probe           *probe      // traced runs only
	fabric          *mem.Fabric // multi-channel cells, traced runs only
	useful, slots   int64       // FS slots that carried demand / all slots
	commands        int64
}

// runCell builds and runs one cell. traced installs the scheduler and
// stream wrappers; keepRefs bounds the addresses kept per stream.
func runCell(c cell, traced bool, keepRefs int) cellRun {
	cfg := c.Cfg
	var p *probe
	if traced {
		p = &probe{keep: keepRefs}
		cfg.StreamFactory = p.streamFactory(cfg)
	}
	t0 := time.Now()
	s, err := sim.New(cfg)
	setup := time.Since(t0)
	if err != nil {
		return cellRun{err: err, setupNs: int64(setup)}
	}
	if traced {
		p.install(s)
	}
	t1 := time.Now()
	res := s.Run()
	run := time.Since(t1)
	r := cellRun{res: res, setupNs: int64(setup), runNs: int64(run), probe: p,
		reads: res.Run.TotalReads(), cycles: res.Run.BusCycles}
	r.ffJumps, r.ffSkip = s.FastForward()
	if traced && s.Fabric() != nil {
		r.fabric = s.Fabric()
	}
	if res.Monitor != nil {
		r.commands = res.Monitor.Commands
	}
	if cfg.Scheduler.IsFS() {
		for _, d := range res.Run.Domains {
			r.useful += d.Reads + d.Writes
			r.slots += d.Reads + d.Writes + d.Dummies + d.Prefetches
		}
		if res.FS != nil {
			r.slots += res.FS.PowerDownSlots
		}
	}
	return r
}

// problems lists what makes a cell's result unusable: a build error,
// truncation, or any runtime-monitor finding (timing violations, FS
// schedule divergence, scheduler-reported violations) on any channel.
func (r cellRun) problems() []string {
	if r.err != nil {
		return []string{"build: " + r.err.Error()}
	}
	var out []string
	if r.res.Truncated {
		out = append(out, "truncated: "+r.res.TruncateReason)
	}
	reports := []*fault.Report{r.res.Monitor}
	for _, pc := range r.res.PerChannel {
		reports = append(reports, pc.Monitor)
	}
	for i, m := range reports {
		if m == nil {
			if i == 0 {
				out = append(out, "no monitor report")
			}
			continue
		}
		if !m.Ok() {
			out = append(out, fmt.Sprintf("monitor: %d timing, %d schedule, %d scheduler violations",
				m.TimingViolations, m.ScheduleViolations, m.SchedulerViolations))
		}
	}
	return out
}

// digestDoc is the canonical form of a Result that the digest hashes:
// every simulated statistic, with the latency histograms rendered and the
// observability attachments (trace ring, metrics snapshot) left out, since
// observation must not change what a run computes.
type digestDoc struct {
	Scheduler      string
	Workload       string
	BusCycles      int64
	ChannelCycles  []int64
	Domains        []stats.Domain
	Channel        dram.Counters
	Latency        []string
	FS             *core.FSStats
	Monitor        *fault.Report
	Violations     []string
	Truncated      bool
	TruncateReason string
	PerChannel     []digestDoc
}

func canonical(res sim.Result) digestDoc {
	d := digestDoc{
		Scheduler: res.Run.Scheduler, Workload: res.Run.Workload,
		BusCycles: res.Run.BusCycles, ChannelCycles: res.Run.ChannelCycles,
		Domains: res.Run.Domains, Channel: res.Run.Channel, FS: res.FS,
		Truncated: res.Truncated, TruncateReason: res.TruncateReason,
	}
	for _, h := range res.Run.Latency {
		d.Latency = append(d.Latency, h.String())
	}
	if res.Monitor != nil {
		m := *res.Monitor
		for _, v := range m.Violations {
			d.Violations = append(d.Violations, v.Error())
		}
		m.Violations = nil
		d.Monitor = &m
	}
	for _, pc := range res.PerChannel {
		d.PerChannel = append(d.PerChannel, canonical(pc))
	}
	return d
}

// digestResult is the hex SHA-256 of a Result's canonical JSON.
func digestResult(res sim.Result) string {
	b, err := json.Marshal(canonical(res))
	if err != nil {
		return "unencodable: " + err.Error()
	}
	return digestBytes(b)
}

func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
