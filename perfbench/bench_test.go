package main

import (
	"strings"
	"testing"

	"fsmem/internal/fault"
	"fsmem/internal/sim"
)

// smallCell is a quick FS cell for the gate tests.
func smallCell() cell {
	c := rateCell("mcf4-fs_rp", "mcf", 4, sim.FSRankPart, defaultSeed)
	c.Cfg.TargetReads = 500
	return c
}

// gateErrorRate runs one pass over the cells, pinned to pins, and returns
// its error rate and failures.
func gateErrorRate(t *testing.T, cells []cell, pins map[string]string) (float64, []string) {
	t.Helper()
	p := newSimWork(cells, defaultSeed, pins, nil).pass(false)
	if p.attempted == 0 {
		t.Fatal("pass attempted nothing")
	}
	return float64(p.failed) / float64(p.attempted), p.failures
}

func cleanPins(t *testing.T, c cell) map[string]string {
	t.Helper()
	r := runCell(c, false, 0)
	if probs := r.problems(); len(probs) > 0 {
		t.Fatalf("clean cell has problems: %v", probs)
	}
	return map[string]string{c.Name: digestResult(r.res)}
}

func TestGateCleanCellPasses(t *testing.T) {
	c := smallCell()
	if rate, fails := gateErrorRate(t, []cell{c}, cleanPins(t, c)); rate != 0 {
		t.Fatalf("error_rate %v on a clean cell: %v", rate, fails)
	}
}

func TestGatePerturbedDigestFails(t *testing.T) {
	c := smallCell()
	pins := cleanPins(t, c)
	d := []byte(pins[c.Name])
	d[0] ^= 1
	pins[c.Name] = string(d)
	rate, fails := gateErrorRate(t, []cell{c}, pins)
	if rate <= 0 || !strings.Contains(strings.Join(fails, "\n"), "digest") {
		t.Fatalf("perturbed digest: error_rate %v, failures %v", rate, fails)
	}
}

func TestGateTruncationFails(t *testing.T) {
	c := smallCell()
	pins := cleanPins(t, c)
	c.Cfg.MaxBusCycles = 2000
	rate, fails := gateErrorRate(t, []cell{c}, pins)
	if rate <= 0 || !strings.Contains(strings.Join(fails, "\n"), "truncated") {
		t.Fatalf("forced truncation: error_rate %v, failures %v", rate, fails)
	}
}

func TestGateFaultPlanFails(t *testing.T) {
	c := smallCell()
	pins := cleanPins(t, c)
	plan, ok := fault.PlanByName("derate-trcd", len(c.Cfg.Mix.Profiles), 7)
	if !ok {
		t.Fatal("no derate-trcd plan")
	}
	c.Cfg.Fault = plan
	rate, fails := gateErrorRate(t, []cell{c}, pins)
	if rate <= 0 || !strings.Contains(strings.Join(fails, "\n"), "monitor") {
		t.Fatalf("derate-trcd fault: error_rate %v, failures %v", rate, fails)
	}
}

// TestDaemonGate drives a short job list through the coordinator and its
// worker, then requires a reply that differs from the in-process run to
// count as a failure.
func TestDaemonGate(t *testing.T) {
	d := newDaemon(env{seed: 3, out: t.TempDir()})
	for c := range d.lists {
		d.lists[c] = d.lists[c][:5]
	}
	if p := d.pass(true); p.failed != 0 || p.attempted == 0 {
		t.Fatalf("clean daemon pass: %d of %d failed: %v", p.failed, p.attempted, p.failures)
	}
	if m := d.layers(); m["server.cache_hit_ratio"] <= 0 || m["client.wait_ms_p50"] <= 0 {
		t.Fatalf("daemon layers not measured: %v", m)
	}
	first := d.lists[0][0].name
	d.want[first] = append([]byte(nil), d.want[first]...)
	d.want[first][0] ^= 1
	p := d.pass(false)
	if p.failed == 0 || !strings.Contains(strings.Join(p.failures, "\n"), "differs from the in-process run") {
		t.Fatalf("perturbed document: %d of %d failed: %v", p.failed, p.attempted, p.failures)
	}
}

// TestTracedRunFidelity holds the traced run to the untraced one: the
// scheduler and stream wrappers must leave every digest and every
// fast-forward jump count unchanged (a wrapper that dropped NextEvent
// would quietly switch fast-forward off).
func TestTracedRunFidelity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every contended and secure cell twice")
	}
	for _, c := range append(contendedCells(defaultSeed), secureCells(defaultSeed)...) {
		plain := runCell(c, false, 0)
		traced := runCell(c, true, keepRefs)
		if probs := plain.problems(); len(probs) > 0 {
			t.Fatalf("%s: %v", c.Name, probs)
		}
		if a, b := digestResult(plain.res), digestResult(traced.res); a != b {
			t.Errorf("%s: traced digest %.12s, untraced %.12s", c.Name, b, a)
		}
		if plain.ffJumps != traced.ffJumps || plain.ffSkip != traced.ffSkip {
			t.Errorf("%s: traced fast-forward %d jumps/%d skipped, untraced %d/%d",
				c.Name, traced.ffJumps, traced.ffSkip, plain.ffJumps, plain.ffSkip)
		}
		if traced.probe.ticks == 0 {
			t.Errorf("%s: the scheduler wrapper saw no ticks", c.Name)
		}
	}
}
