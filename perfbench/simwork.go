package main

import (
	"fmt"
	"sort"
	"time"

	"fsmem/internal/addr"
	"fsmem/internal/dram"
	"fsmem/internal/fault"
	"fsmem/internal/mem"
	"fsmem/internal/obs"
	"fsmem/internal/sim"
)

// keepRefs bounds the addresses the traced run keeps per core stream for
// timing the fabric router.
const keepRefs = 4096

// simWork drives the contended and secure workloads: each pass builds and
// runs every cell through sim.New and System.Run.
type simWork struct {
	cells []cell
	seed  uint64
	// ref holds the digest each cell must reproduce: the pinned digest at
	// the default seed, otherwise the first pass's. requirePins makes a
	// cell without a pinned digest fail.
	ref         map[string]string
	requirePins bool
	jumps       map[string]int64 // fast-forward jumps of the first pass
	spans       *spanLog

	// Traced-run totals.
	traced                        layerTotals
	routes                        []routeSet
	replay                        replayTotals
	untracedRunNs, untracedCycles float64
}

type layerTotals struct {
	passes                 int
	runNs, tickNs, nextNs  float64
	streamNs               float64
	ticks, nextCalls       float64
	streams                float64
	cycles, skipped, jumps float64
	reads, commands        float64
	useful, slots          float64
}

type routeSet struct {
	f    *mem.Fabric
	refs []routedRef
}

type replayTotals struct {
	cmds                   float64
	dramNs, monNs, monObjs float64
}

func newSimWork(cells []cell, seed uint64, pinned map[string]string, spans *spanLog) *simWork {
	w := &simWork{cells: cells, seed: seed, ref: map[string]string{}, requirePins: pinned != nil,
		jumps: map[string]int64{}, spans: spans}
	for k, v := range pinned {
		w.ref[k] = v
	}
	return w
}

func (w *simWork) pass(traced bool) passResult {
	var out passResult
	runs := make([]cellRun, len(w.cells))
	b0, _ := heapCounters()
	for i, c := range w.cells {
		began := time.Now()
		runs[i] = runCell(c, traced, keepRefs)
		if traced {
			w.recordSpans(c.Name, began, runs[i])
		}
	}
	b1, _ := heapCounters()
	out.allocB = float64(b1 - b0)
	for i, c := range w.cells {
		r := runs[i]
		out.setupNs += float64(r.setupNs)
		out.wallNs += float64(r.runNs)
		out.cycles += float64(r.cycles)
		fails := w.check(c, r, traced)
		out.job(c.Name, float64(r.runNs)/1e6, float64(r.reads), fails)
		if traced {
			w.accumulate(r)
		}
	}
	if traced {
		w.traced.passes++
	} else {
		w.untracedRunNs += out.wallNs
		w.untracedCycles += out.cycles
	}
	return out
}

// check compares one cell against its reference digest and, for a traced
// run, against the untraced fast-forward jump count: a wrapper that
// failed to forward NextEvent would silently turn fast-forward off.
func (w *simWork) check(c cell, r cellRun, traced bool) []string {
	fails := r.problems()
	if r.err != nil {
		return fails
	}
	dg := digestResult(r.res)
	if want, ok := w.ref[c.Name]; !ok {
		if w.requirePins {
			fails = append(fails, "no pinned digest at the default seed")
		}
		w.ref[c.Name] = dg
	} else if dg != want {
		fails = append(fails, fmt.Sprintf("digest %.12s, want %.12s", dg, want))
	}
	if j, ok := w.jumps[c.Name]; !ok {
		w.jumps[c.Name] = r.ffJumps
	} else if j != r.ffJumps {
		what := "untraced"
		if !traced {
			what = "first pass"
		}
		fails = append(fails, fmt.Sprintf("fast-forward jumps %d, %s %d", r.ffJumps, what, j))
	}
	return fails
}

func (w *simWork) recordSpans(name string, began time.Time, r cellRun) {
	id := w.spans.add(name, "cell", 0, began, began.Add(time.Duration(r.setupNs+r.runNs)), nil)
	setupEnd := began.Add(time.Duration(r.setupNs))
	w.spans.add(name, "sim.New", id, began, setupEnd, nil)
	if p := r.probe; p != nil {
		w.spans.add(name, "System.Run", id, setupEnd, setupEnd.Add(time.Duration(r.runNs)), map[string]float64{
			"sched.tick_ns": float64(p.tickNs), "sched.ticks": float64(p.ticks),
			"sched.next_event_ns": float64(p.nextNs), "sched.next_event_calls": float64(p.nextCalls),
			"workload.next_ns": float64(p.streamNs), "workload.next_calls": float64(p.streams),
			"sim.ff_jumps": float64(r.ffJumps), "sim.ff_skipped": float64(r.ffSkip),
			"sim.bus_cycles": float64(r.cycles), "sim.reads": float64(r.reads),
		})
	}
}

func (w *simWork) accumulate(r cellRun) {
	t := &w.traced
	p := r.probe
	if p == nil {
		return
	}
	t.runNs += float64(r.runNs)
	t.tickNs += float64(p.tickNs)
	t.nextNs += float64(p.nextNs)
	t.streamNs += float64(p.streamNs)
	t.ticks += float64(p.ticks)
	t.nextCalls += float64(p.nextCalls)
	t.streams += float64(p.streams)
	t.cycles += float64(r.cycles)
	t.skipped += float64(r.ffSkip)
	t.jumps += float64(r.ffJumps)
	t.reads += float64(r.reads)
	t.commands += float64(r.commands)
	t.useful += float64(r.useful)
	t.slots += float64(r.slots)
	if r.fabric != nil && t.passes == 0 {
		w.routes = append(w.routes, routeSet{f: r.fabric, refs: p.refs})
	}
}

// verify re-runs one cell, chosen by the seed, on the dense per-cycle loop
// and requires the identical digest. A traced run additionally records
// every cell's command stream and replays it through a fresh DRAM channel
// and a fresh runtime monitor, outside any timed region.
func (w *simWork) verify(traced bool) passResult {
	var out passResult
	c := w.cells[int(w.seed%uint64(len(w.cells)))]
	c.Cfg.DenseLoop = true
	r := runCell(c, false, 0)
	fails := r.problems()
	if r.err == nil {
		if dg := digestResult(r.res); dg != w.ref[c.Name] {
			fails = append(fails, fmt.Sprintf("dense-loop digest %.12s, fast-forward %.12s", dg, w.ref[c.Name]))
		}
	}
	out.check(c.Name+"/dense", fails)
	if traced {
		for _, c := range w.cells {
			out.check(c.Name+"/replay", w.recordReplay(c))
		}
	}
	return out
}

// timedCmd is one recorded bus command.
type timedCmd struct {
	cmd        dram.Command
	cycle      int64
	suppressed bool
}

// recordReplay re-runs the cell with the command tracer on (the ring sized
// so nothing is dropped), checks that observation left the digest
// unchanged, and replays each channel's command stream.
func (w *simWork) recordReplay(c cell) []string {
	cfg := c.Cfg
	var res sim.Result
	for ringCap := 1 << 16; ; ringCap *= 4 {
		cfg.Observe = &obs.Options{TraceCap: ringCap}
		var err error
		res, err = sim.Simulate(cfg)
		if err != nil {
			return []string{"observed run: " + err.Error()}
		}
		if res.Trace.Dropped() == 0 {
			break
		}
		if ringCap >= 1<<22 {
			return []string{fmt.Sprintf("trace ring dropped %d events at capacity %d", res.Trace.Dropped(), ringCap)}
		}
	}
	var fails []string
	if dg := digestResult(res); dg != w.ref[c.Name] {
		fails = append(fails, fmt.Sprintf("observed-run digest %.12s, want %.12s", dg, w.ref[c.Name]))
	}
	byChan := map[int][]timedCmd{}
	for _, e := range res.Trace.Events() {
		if e.Kind != obs.EvCmd {
			continue
		}
		byChan[int(e.Chan)] = append(byChan[int(e.Chan)], timedCmd{
			cmd: dram.Command{Kind: e.Cmd, Rank: int(e.Rank), Bank: int(e.Bank), Row: int(e.Row),
				Col: int(e.Col), Domain: int(e.Domain)},
			cycle: e.Cycle, suppressed: e.Flags&obs.FlagSuppressed != 0,
		})
	}
	domains := len(cfg.Mix.Profiles)
	if cfg.Channels > 1 && cfg.Routing == addr.RouteColored {
		domains /= cfg.Channels
	}
	var chans []int
	for ch := range byChan {
		chans = append(chans, ch)
	}
	sort.Ints(chans)
	const reps = 3
	var dramNs, monNs, monObjs []float64
	for k := 0; k < reps; k++ {
		var dn, mn, mo float64
		for _, ch := range chans {
			d, m, objs, bad := replayChannel(cfg, domains, byChan[ch])
			if bad != "" && k == 0 {
				fails = append(fails, fmt.Sprintf("replay channel %d: %s", ch, bad))
			}
			dn, mn, mo = dn+d, mn+m, mo+objs
		}
		dramNs, monNs, monObjs = append(dramNs, dn), append(monNs, mn), append(monObjs, mo)
	}
	for _, ch := range chans {
		w.replay.cmds += float64(len(byChan[ch]))
	}
	w.replay.dramNs += median(dramNs)
	w.replay.monNs += median(monNs)
	w.replay.monObjs += median(monObjs)
	return fails
}

// replayChannel feeds one channel's recorded commands through a fresh
// dram.Channel (Ready then IssueEx) and a fresh fault.Monitor (Intended
// then Applied), timing each replay separately.
func replayChannel(cfg sim.Config, domains int, cmds []timedCmd) (dramNs, monNs, monObjs float64, bad string) {
	ch := dram.NewChannel(cfg.DRAM)
	rejected := 0
	t := time.Now()
	for _, c := range cmds {
		if !ch.Ready(c.cmd, c.cycle) {
			rejected++
		}
		if err := ch.IssueEx(c.cmd, c.cycle, c.suppressed); err != nil {
			rejected++
		}
	}
	dramNs = float64(time.Since(t))

	m := fault.NewMonitor(cfg.DRAM, domains)
	if cfg.Scheduler.IsFS() {
		m.EnableScheduleCheck()
	}
	_, o0 := heapCounters()
	t = time.Now()
	for _, c := range cmds {
		m.Intended(c.cmd, c.cycle)
		m.Applied(c.cmd, c.cycle, c.suppressed)
	}
	monNs = float64(time.Since(t))
	_, o1 := heapCounters()
	monObjs = float64(o1 - o0)
	rep := m.Finalize(nil)
	switch {
	case rejected > 0:
		bad = fmt.Sprintf("%d recorded commands rejected by a fresh channel", rejected)
	case !rep.Ok():
		bad = fmt.Sprintf("monitor replay flagged %d timing, %d schedule violations", rep.TimingViolations, rep.ScheduleViolations)
	}
	return dramNs, monNs, monObjs, bad
}

// routeNs times mem.Fabric.ChannelOf over the kept address streams of the
// multi-channel cells; the median of five sweeps, per call.
func (w *simWork) routeNs() float64 {
	var calls int
	for _, rs := range w.routes {
		calls += len(rs.refs)
	}
	if calls == 0 {
		return 0
	}
	var per []float64
	sink := 0
	for k := 0; k < 5; k++ {
		t := time.Now()
		for _, rs := range w.routes {
			for _, r := range rs.refs {
				sink += rs.f.ChannelOf(r.domain, r.a)
			}
		}
		per = append(per, float64(time.Since(t))/float64(calls))
	}
	routeSink = sink
	return median(per)
}

// routeSink keeps the router loop from being optimized away.
var routeSink int

func (w *simWork) digests() map[string]string { return w.ref }

func (w *simWork) layers() map[string]float64 {
	t := w.traced
	m := map[string]float64{}
	if t.passes == 0 {
		return m
	}
	n := float64(t.passes)
	// Scale the sampled timings up to every call, less the clock's own
	// cost inside each timed interval.
	bias := timerBias()
	scale := func(ns, calls float64) float64 { return nonNeg(ns-calls/sampleEvery*bias) * sampleEvery }
	tick := scale(t.tickNs, t.ticks)
	next := scale(t.nextNs, t.nextCalls)
	stream := scale(t.streamNs, t.streams)
	m["sched.tick_share"] = ratio(tick, t.runNs)
	m["sched.ns_per_tick"] = ratio(tick, t.ticks)
	m["sched.ticks"] = t.ticks / n
	m["sched.next_event_share"] = ratio(next, t.runNs)
	m["sched.next_event_calls"] = t.nextCalls / n
	m["sim.ff_skip_ratio"] = ratio(t.skipped, t.cycles)
	m["sim.ff_jumps"] = t.jumps / n
	m["sim.self_share"] = ratio(nonNeg(t.runNs-tick-next-stream), t.runNs)
	m["sim.ns_per_bus_cycle"] = ratio(w.untracedRunNs, w.untracedCycles)
	m["workload.next_share"] = ratio(stream, t.runNs)
	m["dram.replay_ns_per_cmd"] = ratio(w.replay.dramNs, w.replay.cmds)
	m["fault.monitor_replay_ns_per_cmd"] = ratio(w.replay.monNs, w.replay.cmds)
	m["fault.monitor_replay_allocs_per_cmd"] = ratio(w.replay.monObjs, w.replay.cmds)
	m["mem.fabric_route_ns"] = w.routeNs()
	m["dram.cmds_per_read"] = ratio(t.commands, t.reads)
	m["core.useful_slot_ratio"] = ratio(t.useful, t.slots)
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func nonNeg(x float64) float64 {
	if x < 0 {
		return 0
	}
	return x
}

// timerBias estimates what one time.Now/time.Since pair adds to a timed
// interval, so wrapper timings can be corrected for their own cost.
func timerBias() float64 {
	const n = 200000
	var total time.Duration
	for i := 0; i < n; i++ {
		s := time.Now()
		total += time.Since(s)
	}
	return float64(total) / n
}
