// Package sched contains the non-FS scheduling policies the paper compares
// against: an optimized non-secure baseline in the FR-FCFS family (standing
// in for the Memory Scheduling Championship 2012 winner) and Temporal
// Partitioning (Wang et al., HPCA 2014).
package sched

import (
	"math"

	"fsmem/internal/dram"
	"fsmem/internal/mem"
)

// Baseline is the optimized non-secure scheduler: open-page FR-FCFS with
// row-hit-first command selection, read-over-write priority, and
// watermark-based write draining. It freely mixes requests from all
// domains, which is precisely the behavior that leaks timing information.
type Baseline struct {
	p dram.Params

	// Write-drain watermarks as fractions of total write-buffer capacity.
	hi, lo int

	draining bool

	// Refresh state (per rank), active when RefreshEnabled.
	RefreshEnabled  bool
	refreshDeadline []int64

	// probed[bank] == probeGen marks a (rank, bank), indexed
	// rank*BanksPerRank+bank, whose command the current serve call already
	// found illegal. Legality depends only on the command kind, rank, bank
	// and cycle, and within one serve call the bank's state fixes the kind:
	// ACT for a closed bank, CAS for an open row some request of the class
	// hits, otherwise PRE (never for a row a queued request wants). So a
	// second request to the bank would be refused the same way.
	probed   []uint32
	probeGen uint32

	// wanted[bank] reports whether any queued request, read or write, still
	// wants the bank's open row. It is built lazily once per Tick: nothing
	// changes the queues or the banks until a command issues, and Tick
	// returns as soon as one does.
	wanted      []bool
	wantedBuilt bool
}

// NewBaseline builds the baseline policy for the given parameters and
// per-domain controller configuration.
func NewBaseline(p dram.Params, cfg mem.Config) *Baseline {
	total := cfg.WriteCap * cfg.Domains
	b := &Baseline{
		p:  p,
		hi: total * 3 / 4,
		lo: total / 4,
	}
	b.refreshDeadline = make([]int64, p.RanksPerChan)
	for r := range b.refreshDeadline {
		b.refreshDeadline[r] = int64(p.TREFI)
	}
	b.probed = make([]uint32, p.TotalBanks())
	b.wanted = make([]bool, p.TotalBanks())
	return b
}

// Name implements mem.Scheduler.
func (b *Baseline) Name() string { return "baseline" }

// NextEvent implements mem.EventSource. With any request queued the policy
// may act on the very next tick; while the drain latch is set an otherwise
// idle tick still settles it back below the low watermark (the latch is
// observable through ObsMetrics, so its settling cycle must stay exact).
// Otherwise only a refresh deadline can wake the scheduler.
func (b *Baseline) NextEvent(c *mem.Controller) int64 {
	if b.draining || c.PendingReads() > 0 || c.PendingWrites() > 0 {
		return c.Cycle
	}
	if !b.RefreshEnabled {
		return math.MaxInt64
	}
	h := int64(math.MaxInt64)
	for _, d := range b.refreshDeadline {
		if d < h {
			h = d
		}
	}
	if h < c.Cycle {
		h = c.Cycle // refresh overdue (e.g. blocked last tick): retry now
	}
	return h
}

// Tick issues at most one command according to FR-FCFS priorities.
func (b *Baseline) Tick(c *mem.Controller) {
	b.wantedBuilt = false
	if b.RefreshEnabled && b.tickRefresh(c) {
		return
	}

	pw := c.PendingWrites()
	if pw >= b.hi {
		b.draining = true
	}
	if pw <= b.lo {
		b.draining = false
	}

	writesFirst := b.draining || c.PendingReads() == 0
	if writesFirst {
		if b.serve(c, true) || b.serve(c, false) {
			return
		}
	} else {
		if b.serve(c, false) || b.serve(c, true) {
			return
		}
	}
}

// serve attempts one command for the given request class. Priority order:
//  1. column access for the oldest row-hit request,
//  2. activate for the oldest request to a closed bank,
//  3. precharge for a bank whose oldest request is a row conflict and no
//     queued request still wants the open row.
//
// Each (rank, bank) is probed at most once per call (see probed).
func (b *Baseline) serve(c *mem.Controller, writes bool) bool {
	reqs := c.ReadAge()
	if writes {
		reqs = c.WriteAge()
	}
	if len(reqs) == 0 {
		return false
	}
	b.probeGen++
	if b.probeGen == 0 { // wrapped: stale marks could collide
		clear(b.probed)
		b.probeGen = 1
	}

	// 1. Row hits, oldest first.
	for _, r := range reqs {
		if c.Chan.OpenRow(r.Addr.Rank, r.Addr.Bank) == r.Addr.Row && b.firstProbe(r.Addr) {
			if b.issueCAS(c, r, writes) {
				return true
			}
		}
	}
	// 2. Activates for closed banks, oldest first.
	for _, r := range reqs {
		if c.Chan.OpenRow(r.Addr.Rank, r.Addr.Bank) == dram.ClosedRow && b.firstProbe(r.Addr) {
			cmd := dram.Command{Kind: dram.KindActivate, Rank: r.Addr.Rank, Bank: r.Addr.Bank, Row: r.Addr.Row, Domain: r.Domain}
			if c.TryIssue(cmd) {
				c.RecordFirstCommand(r)
				r.Acted = true
				return true
			}
		}
	}
	// 3. Precharge row conflicts with no remaining hits to the open row.
	for _, r := range reqs {
		open := c.Chan.OpenRow(r.Addr.Rank, r.Addr.Bank)
		if open == dram.ClosedRow || open == r.Addr.Row || !b.firstProbe(r.Addr) {
			continue
		}
		if b.openRowWanted(c, r.Addr) {
			continue
		}
		cmd := dram.Command{Kind: dram.KindPrecharge, Rank: r.Addr.Rank, Bank: r.Addr.Bank, Domain: r.Domain}
		if c.TryIssue(cmd) {
			return true
		}
	}
	return false
}

// firstProbe reports whether the serve call has not yet probed the
// address's bank, and marks it probed. The caller's probe either issues,
// ending the Tick, or fails as every later probe of the bank would.
func (b *Baseline) firstProbe(a dram.Address) bool {
	i := a.Rank*b.p.BanksPerRank + a.Bank
	if b.probed[i] == b.probeGen {
		return false
	}
	b.probed[i] = b.probeGen
	return true
}

// openRowWanted reports whether any queued request of either class targets
// the row open in the address's bank, building the per-bank table on first
// use in a Tick.
func (b *Baseline) openRowWanted(c *mem.Controller, a dram.Address) bool {
	if !b.wantedBuilt {
		clear(b.wanted)
		for _, q := range [2][]*mem.Request{c.ReadAge(), c.WriteAge()} {
			for _, r := range q {
				if c.Chan.OpenRow(r.Addr.Rank, r.Addr.Bank) == r.Addr.Row {
					b.wanted[r.Addr.Rank*b.p.BanksPerRank+r.Addr.Bank] = true
				}
			}
		}
		b.wantedBuilt = true
	}
	return b.wanted[a.Rank*b.p.BanksPerRank+a.Bank]
}

func (b *Baseline) issueCAS(c *mem.Controller, r *mem.Request, write bool) bool {
	kind := dram.KindRead
	dataStart := b.p.TCAS
	if write {
		kind = dram.KindWrite
		dataStart = b.p.TCWD
	}
	cmd := dram.Command{Kind: kind, Rank: r.Addr.Rank, Bank: r.Addr.Bank, Col: r.Addr.Col, Domain: r.Domain}
	if !c.TryIssue(cmd) {
		return false
	}
	c.RecordFirstCommand(r)
	if !r.Acted {
		c.Dom[r.Domain].RowHits++
	}
	r.DataEnd = c.Cycle + int64(dataStart) + int64(b.p.TBURST)
	var err error
	if write {
		err = c.RemoveWrite(r)
	} else {
		err = c.RemoveRead(r)
	}
	if err != nil {
		c.ReportViolation(err)
	}
	c.CompleteAt(r, r.DataEnd)
	return true
}

// tickRefresh manages per-rank refresh: when a deadline passes, open banks
// are precharged and REF issued; returns true if it used the command bus.
func (b *Baseline) tickRefresh(c *mem.Controller) bool {
	for rank := range b.refreshDeadline {
		if c.Cycle < b.refreshDeadline[rank] {
			continue
		}
		// Close any open bank first.
		for bank := 0; bank < b.p.BanksPerRank; bank++ {
			if c.Chan.OpenRow(rank, bank) != dram.ClosedRow {
				cmd := dram.Command{Kind: dram.KindPrecharge, Rank: rank, Bank: bank, Domain: dram.NoDomain}
				if c.TryIssue(cmd) {
					return true
				}
				return false // blocked this cycle; retry next
			}
		}
		cmd := dram.Command{Kind: dram.KindRefresh, Rank: rank, Domain: dram.NoDomain}
		if c.TryIssue(cmd) {
			b.refreshDeadline[rank] += int64(b.p.TREFI)
			return true
		}
		return false
	}
	return false
}

// ObsMetrics contributes the policy's live state to an observability
// snapshot (structurally satisfies obs.MetricSource).
func (b *Baseline) ObsMetrics(emit func(name string, value float64)) {
	emit("drain_high_watermark", float64(b.hi))
	emit("drain_low_watermark", float64(b.lo))
	draining := 0.0
	if b.draining {
		draining = 1
	}
	emit("draining", draining)
}
