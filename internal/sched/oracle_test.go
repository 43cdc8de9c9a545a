package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"fsmem/internal/dram"
	"fsmem/internal/mem"
)

// oracleBaseline is the straightforward FR-FCFS selection the Baseline's
// age views and probe memo must reproduce: per serve it re-collects every
// queue and insertion-sorts it by arrival, and it scans every queue for each
// precharge candidate. It reuses the Baseline's watermarks, refresh and
// CAS bookkeeping, which the optimization left alone.
type oracleBaseline struct {
	*Baseline
}

func (o oracleBaseline) Tick(c *mem.Controller) {
	b := o.Baseline
	if b.RefreshEnabled && b.tickRefresh(c) {
		return
	}
	pw := len(o.gather(c, true))
	if pw >= b.hi {
		b.draining = true
	}
	if pw <= b.lo {
		b.draining = false
	}
	if b.draining || len(o.gather(c, false)) == 0 {
		_ = o.serve(c, true) || o.serve(c, false)
	} else {
		_ = o.serve(c, false) || o.serve(c, true)
	}
}

func (o oracleBaseline) serve(c *mem.Controller, writes bool) bool {
	reqs := o.gather(c, writes)
	for _, r := range reqs {
		if c.Chan.OpenRow(r.Addr.Rank, r.Addr.Bank) == r.Addr.Row && o.issueCAS(c, r, writes) {
			return true
		}
	}
	for _, r := range reqs {
		if c.Chan.OpenRow(r.Addr.Rank, r.Addr.Bank) == dram.ClosedRow {
			cmd := dram.Command{Kind: dram.KindActivate, Rank: r.Addr.Rank, Bank: r.Addr.Bank, Row: r.Addr.Row, Domain: r.Domain}
			if c.TryIssue(cmd) {
				c.RecordFirstCommand(r)
				r.Acted = true
				return true
			}
		}
	}
	for _, r := range reqs {
		open := c.Chan.OpenRow(r.Addr.Rank, r.Addr.Bank)
		if open == dram.ClosedRow || open == r.Addr.Row || anyWantsRow(c, r.Addr.Rank, r.Addr.Bank, open) {
			continue
		}
		cmd := dram.Command{Kind: dram.KindPrecharge, Rank: r.Addr.Rank, Bank: r.Addr.Bank, Domain: r.Domain}
		if c.TryIssue(cmd) {
			return true
		}
	}
	return false
}

func (oracleBaseline) gather(c *mem.Controller, writes bool) []*mem.Request {
	qs := c.ReadQ
	if writes {
		qs = c.WriteQ
	}
	var out []*mem.Request
	for _, q := range qs {
		out = append(out, q...)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Arrive < out[j-1].Arrive; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func anyWantsRow(c *mem.Controller, rank, bank, row int) bool {
	for _, qs := range [][][]*mem.Request{c.ReadQ, c.WriteQ} {
		for _, q := range qs {
			for _, r := range q {
				if r.Addr.Rank == rank && r.Addr.Bank == bank && r.Addr.Row == row {
					return true
				}
			}
		}
	}
	return false
}

type issued struct {
	cmd   dram.Command
	cycle int64
}

// TestBaselineMatchesOracle runs the Baseline and the oracle in lockstep on
// identical random traffic — few rows per bank, so hits, conflicts and
// shared banks abound — and requires the same command on every cycle.
func TestBaselineMatchesOracle(t *testing.T) {
	geoms := []struct {
		name string
		p    dram.Params
	}{{"ddr3", dram.DDR3_1600()}, {"ddr4", dram.DDR4_2400()}}
	for _, g := range geoms {
		var refreshes int64
		for seed := int64(1); seed <= 6; seed++ {
			refresh := seed%2 == 0
			t.Run(fmt.Sprintf("%s/seed%d/refresh=%v", g.name, seed, refresh), func(t *testing.T) {
				refreshes += diffBaseline(t, g.p, seed, refresh)
			})
		}
		if refreshes == 0 {
			t.Errorf("%s: no refresh issued in any run", g.name)
		}
	}
}

// diffBaseline runs one lockstep comparison and returns the refreshes
// issued.
func diffBaseline(t *testing.T, p dram.Params, seed int64, refresh bool) int64 {
	p.TREFI = 700 // several refreshes per run
	cfg := mem.Config{Domains: 4, ReadCap: 12, WriteCap: 8}
	mk := func(wrap func(*Baseline) mem.Scheduler) (*mem.Controller, *[]issued) {
		b := NewBaseline(p, cfg)
		b.RefreshEnabled = refresh
		c := mem.NewController(p, cfg, wrap(b))
		var log []issued
		c.Chan.OnIssue = func(cmd dram.Command, cycle int64, _ bool) {
			log = append(log, issued{cmd, cycle})
		}
		return c, &log
	}
	got, gotLog := mk(func(b *Baseline) mem.Scheduler { return b })
	want, wantLog := mk(func(b *Baseline) mem.Scheduler { return oracleBaseline{b} })

	rng := rand.New(rand.NewSource(seed))
	ranks, banks := 2, p.BanksPerRank
	// Bursty arrivals: several requests may share a cycle, in any domain
	// order. Heavy load fills the queues until they reject; light load
	// lets banks close and refreshes issue.
	gap := 1 + int(seed%3)*4
	for cycle := 0; cycle < 4000; cycle++ {
		burst := 0
		if rng.Intn(gap) == 0 {
			burst = rng.Intn(4)
		}
		for ; burst > 0; burst-- {
			d := rng.Intn(cfg.Domains)
			a := dram.Address{Rank: rng.Intn(ranks), Bank: rng.Intn(banks), Row: rng.Intn(3), Col: rng.Intn(8)}
			if rng.Intn(3) == 0 {
				if got.EnqueueWrite(d, a) != want.EnqueueWrite(d, a) {
					t.Fatalf("cycle %d: write admission diverged", cycle)
				}
			} else if got.EnqueueRead(d, a, nil) != want.EnqueueRead(d, a, nil) {
				t.Fatalf("cycle %d: read admission diverged", cycle)
			}
		}
		got.Tick()
		want.Tick()
		if len(*gotLog) != len(*wantLog) {
			t.Fatalf("cycle %d: issued %d commands, oracle %d", cycle, len(*gotLog), len(*wantLog))
		}
		if n := len(*gotLog); n > 0 && (*gotLog)[n-1] != (*wantLog)[n-1] {
			t.Fatalf("cycle %d: issued %v at %d, oracle %v at %d", cycle,
				(*gotLog)[n-1].cmd, (*gotLog)[n-1].cycle, (*wantLog)[n-1].cmd, (*wantLog)[n-1].cycle)
		}
	}
	if len(*gotLog) < 1000 {
		t.Fatalf("only %d commands issued: traffic too light to exercise the scheduler", len(*gotLog))
	}
	if got.Chan.Counters != want.Chan.Counters {
		t.Fatalf("counters %+v, oracle %+v", got.Chan.Counters, want.Chan.Counters)
	}
	return got.Chan.Counters.Refreshes
}
