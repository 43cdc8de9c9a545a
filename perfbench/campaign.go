package main

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"fsmem/internal/audit"
	"fsmem/internal/experiments"
	"fsmem/internal/sim"
)

const (
	// campaignReads is the sweep's per-cell demand-read budget, reduced
	// from the paper's scale so one pass (sweep plus two audits) takes
	// about ten seconds on a 2-vCPU host. Figure 4's profiles do not scale
	// with it and take about half of that.
	campaignReads = 250
	// campaignWorkers is the pool width of the sweep and the audits.
	campaignWorkers = 2
	// A pass builds its runner setupBatches times setupBatch times. One
	// build takes well under a microsecond, so each batch is timed as one
	// interval, and the pass's set-up time is the median batch's mean.
	setupBatches = 25
	setupBatch   = 200
)

// campaign drives what a researcher runs to reproduce and certify the
// paper: every figure and ablation through a fresh experiments.Runner,
// then the audit of FS_NP (must be SECURE) and Baseline (must be LEAKY).
type campaign struct {
	seed        uint64
	ref         map[string]string
	requirePins bool
	seen        map[string]bool
	spans       *spanLog

	// Traced-run totals.
	passes                 int
	cells, sweepNs, cpuSec float64
	auditNs, evals         float64
}

func newCampaign(seed uint64, pins map[string]string, spans *spanLog) *campaign {
	c := &campaign{seed: seed, ref: map[string]string{}, requirePins: pins != nil, spans: spans}
	for k, v := range pins {
		c.ref[k] = v
	}
	return c
}

func (c *campaign) digests() map[string]string { return c.ref }

func (c *campaign) settings(onCell func(string)) experiments.Settings {
	return experiments.Settings{Cores: 8, TargetReads: campaignReads, Seed: c.seed,
		Workers: campaignWorkers, OnCell: onCell}
}

// expect compares one named result digest with its reference.
func (c *campaign) expect(name, dg string) []string {
	c.seen[name] = true
	want, ok := c.ref[name]
	if !ok {
		c.ref[name] = dg
		if c.requirePins {
			return []string{"no pinned digest at the default seed"}
		}
		return nil
	}
	if dg != want {
		return []string{fmt.Sprintf("digest %.12s, want %.12s", dg, want)}
	}
	return nil
}

func (c *campaign) pass(traced bool) passResult {
	var out passResult
	c.seen = map[string]bool{}
	var cells, budget atomic.Int64
	var sweepSpan int // set before the sweep starts the pool that calls onCell
	onCell := func(key string) {
		cells.Add(1)
		budget.Add(readBudget(key))
		now := time.Now()
		// The runner reports a cell when it finishes and has no start
		// hook, so a cell is recorded as a completion mark.
		c.spans.add("campaign", "cell "+key, sweepSpan, now, now, nil)
	}
	var r *experiments.Runner
	var setups []float64
	for b := 0; b < setupBatches; b++ {
		t := time.Now()
		for i := 0; i < setupBatch; i++ {
			r = experiments.NewRunner(c.settings(onCell))
		}
		setups = append(setups, float64(time.Since(t))/setupBatch)
	}
	out.setupNs = median(setups)

	b0, _ := heapCounters()
	cpu0 := cpuSeconds()
	sweepSpan = c.spans.begin("campaign", "sweep", 0)
	t0 := time.Now()
	tables, err := experiments.All(r)
	t1 := time.Now()
	figureReads := budget.Load()
	ablations, aerr := experiments.Ablations(r)
	sweep := time.Since(t0)
	cpu := cpuSeconds() - cpu0
	b1, _ := heapCounters()
	c.spans.end(sweepSpan, map[string]float64{"cells": float64(cells.Load()), "cpu_s": cpu})

	// The figures and the ablations are two jobs, so each can meet a fast
	// spell of the host on its own (see endToEndMetrics).
	out.job("sweep figures", float64(t1.Sub(t0))/1e6, float64(figureReads), errFails(err))
	out.job("sweep ablations", float64(sweep-t1.Sub(t0))/1e6, float64(budget.Load()-figureReads), errFails(aerr))
	for i, t := range append(tables, ablations...) {
		name := fmt.Sprintf("table%02d %s", i, t.ID)
		out.check(name, c.expect(name, digestBytes([]byte(t.Format()))))
	}

	auditNs := 0.0
	var evals int64
	for _, a := range []struct {
		k    sim.SchedulerKind
		want audit.Verdict
	}{{sim.FSNoPart, audit.VerdictSecure}, {sim.Baseline, audit.VerdictLeaky}} {
		name := "audit " + a.k.String()
		id := c.spans.begin("campaign", name, 0)
		var n atomic.Int64
		o := audit.Options{Seed: c.seed, Workers: campaignWorkers,
			Progress: func(string, int, int) { n.Add(1) }}
		t := time.Now()
		cert, err := audit.Run(context.Background(), a.k, o)
		took := time.Since(t)
		c.spans.end(id, map[string]float64{"evals": float64(n.Load())})
		auditNs += float64(took)
		evals += n.Load()
		var fails []string
		switch {
		case err != nil:
			fails = append(fails, err.Error())
		case cert.Verdict != a.want:
			fails = append(fails, fmt.Sprintf("verdict %s, want %s", cert.Verdict, a.want))
		default:
			b, err := audit.MarshalCertificate(cert)
			if err != nil {
				fails = append(fails, err.Error())
			} else {
				fails = c.expect(name, digestBytes(b))
			}
		}
		out.job(name, float64(took)/1e6, 0, fails)
	}
	var missing []string
	for name := range c.ref {
		if !c.seen[name] {
			missing = append(missing, "missing result "+name)
		}
	}
	out.check("results", missing)

	out.wallNs = float64(sweep) + auditNs
	out.allocB = float64(b1 - b0)
	if traced {
		c.passes++
		c.cells += float64(cells.Load())
		c.sweepNs += float64(sweep)
		c.cpuSec += cpu
		c.auditNs += auditNs
		c.evals += float64(evals)
	}
	return out
}

func errFails(err error) []string {
	if err != nil {
		return []string{err.Error()}
	}
	return nil
}

// readBudget is the number of demand reads a simulated grid cell was run
// to, parsed from its memo key: the read target, once per channel on a
// colored multi-channel fabric (each channel stops at its own target).
func readBudget(key string) int64 {
	reads := keyInt(key, "|reads=")
	if keyInt(key, "channels:") > 1 && strings.Contains(key, "routing:colored") {
		reads *= keyInt(key, "channels:")
	}
	return reads
}

func keyInt(key, field string) int64 {
	i := strings.Index(key, field)
	if i < 0 {
		return 0
	}
	s := key[i+len(field):]
	end := 0
	for end < len(s) && s[end] >= '0' && s[end] <= '9' {
		end++
	}
	n, _ := strconv.ParseInt(s[:end], 10, 64)
	return n
}

// verify regenerates Figure 3 on a fresh runner with the dense per-cycle
// loop and requires the table the fast-forward sweep produced.
func (c *campaign) verify(bool) passResult {
	var out passResult
	s := c.settings(nil)
	s.DenseLoop = true
	t, err := experiments.Figure3(experiments.NewRunner(s))
	var fails []string
	if err != nil {
		fails = append(fails, err.Error())
	} else {
		name := "table00 " + t.ID
		if dg := digestBytes([]byte(t.Format())); dg != c.ref[name] {
			fails = append(fails, fmt.Sprintf("dense-loop digest %.12s, fast-forward %.12s", dg, c.ref[name]))
		}
	}
	out.check("Figure 3/dense", fails)
	return out
}

func (c *campaign) layers() map[string]float64 {
	if c.passes == 0 {
		return map[string]float64{}
	}
	n := float64(c.passes)
	return map[string]float64{
		"experiments.cells":       c.cells / n,
		"experiments.cells_per_s": ratio(c.cells, c.sweepNs/1e9),
		"parallel.cpu_util":       ratio(c.cpuSec, campaignWorkers*c.sweepNs/1e9),
		"experiments.sweep_s":     c.sweepNs / 1e9 / n,
		"audit.campaign_s":        c.auditNs / 1e9 / n,
		"audit.evals":             c.evals / n,
		"audit.ns_per_eval":       ratio(c.auditNs, c.evals),
	}
}
