package sched

import (
	"fmt"
	"math"
	"slices"

	"fsmem/internal/dram"
	"fsmem/internal/mem"
)

// TPMode selects the spatial assumption under Temporal Partitioning.
type TPMode int

const (
	// TPBankPartitioned: domains own disjoint banks, so consecutive turns
	// only contend for the buses and same-rank turnarounds.
	TPBankPartitioned TPMode = iota
	// TPNoPartitioning: any domain may touch any bank, so a turn must leave
	// enough room for the worst case — the next turn reusing the same bank
	// after a write.
	TPNoPartitioning
)

// String names the TP mode.
func (m TPMode) String() string {
	if m == TPBankPartitioned {
		return "bank-partitioned"
	}
	return "no-partitioning"
}

// Reserve returns how many cycles before the turn's end the last new
// transaction (ACT) may start, so that the next thread's turn beginning
// immediately after is conflict-free. These equal the basic Fixed Service
// slot spacings — the paper's point that fine-grained TP is the special
// case of the basic FS pipelines:
//
//	bank-partitioned: the write-to-read turnaround, 15 cycles;
//	no-partitioning:  full worst-case bank recovery
//	                  tRCD+tCWD+tBURST+tWR+tRP = 43 cycles.
func (m TPMode) Reserve(p dram.Params) int64 {
	if m == TPBankPartitioned {
		return int64(p.WriteToReadGap())
	}
	return int64(p.TRCD + p.TCWD + p.TBURST + p.TWR + p.TRP)
}

// MinTurnLength returns the smallest legal turn: exactly one transaction
// per turn (the fine-grained model, leftmost bars of Figure 5: 60 CPU =
// 15 bus cycles for BP, 172 CPU = 43 bus cycles for NP).
func (m TPMode) MinTurnLength(p dram.Params) int64 { return m.Reserve(p) }

// TurnLengths returns the Figure 5 sweep for the mode, in bus cycles
// (the paper labels them in CPU cycles: BP 60/100/156, NP 172/212/268).
func (m TPMode) TurnLengths(p dram.Params) []int64 {
	r := m.Reserve(p)
	return []int64{r, r + 10, r + 24}
}

// IntraSpacing is the minimum gap between transaction starts of the same
// thread within one turn ("multiple requests from a thread can be issued
// before finally having a 15-cycle gap and switching to the next thread",
// §4.2). Bank-partitioned turns pack at the read-to-write turnaround; under
// no partitioning consecutive own requests may share a rank and need the
// bank-partitioned spacing.
func (m TPMode) IntraSpacing(p dram.Params) int64 {
	if m == TPBankPartitioned {
		return int64(p.ReadToWriteGap())
	}
	return int64(p.WriteToReadGap())
}

// TP is Temporal Partitioning (Wang et al., HPCA 2014): the channel is
// owned exclusively by one security domain per fixed-length turn, rotating
// round-robin. Turn boundaries never depend on behavior, which closes the
// timing channel; idle turns are simply wasted, and queuing delays grow
// with the thread count.
type TP struct {
	p       dram.Params
	mode    TPMode
	domains int

	TurnLength int64
	Res        int64 // reserve: no new ACT within Res cycles of turn end
	Intra      int64 // minimum spacing between transaction starts in a turn

	lastAct     int64 // cycle of the last intra-turn ACT
	lastActTurn int64
	started     []*mem.Request // activated, awaiting their CAS+AP
}

// NewTP builds a TP scheduler with the given turn length in bus cycles
// (use mode.MinTurnLength for the paper's best configuration).
func NewTP(p dram.Params, mode TPMode, domains int, turnLength int64) (*TP, error) {
	if domains <= 0 {
		return nil, fmt.Errorf("sched: TP needs at least one domain, got %d", domains)
	}
	res := mode.Reserve(p)
	if turnLength < res {
		return nil, fmt.Errorf("sched: turn length %d shorter than reserve %d", turnLength, res)
	}
	return &TP{
		p:          p,
		mode:       mode,
		domains:    domains,
		TurnLength: turnLength,
		Res:        res,
		Intra:      mode.IntraSpacing(p),
		lastAct:    dram.NeverCycle,
	}, nil
}

// Name implements mem.Scheduler.
func (t *TP) Name() string { return fmt.Sprintf("tp-%s-%d", t.mode, t.TurnLength) }

// NextEvent implements mem.EventSource. Turn rotation itself is pure
// arithmetic on the cycle counter, so an empty scheduler — nothing in
// flight, nothing queued — never acts no matter which turn is live.
func (t *TP) NextEvent(c *mem.Controller) int64 {
	if len(t.started) > 0 || c.PendingReads() > 0 || c.PendingWrites() > 0 {
		return c.Cycle
	}
	return math.MaxInt64
}

// Tick issues at most one command for the domain owning the current turn.
func (t *TP) Tick(c *mem.Controller) {
	turn := c.Cycle / t.TurnLength
	domain := int(turn % int64(t.domains))
	turnEnd := (turn + 1) * t.TurnLength

	// Finish transactions already activated: issue their CAS+AP. The
	// reserve guarantees these belong to the current turn's owner.
	for i, req := range t.started {
		if t.issueCAS(c, req) {
			t.started = slices.Delete(t.started, i, i+1)
			return
		}
	}

	// Start a new transaction if the reserve still allows it and the
	// intra-turn spacing since this turn's previous transaction has passed.
	if turnEnd-c.Cycle < t.Res {
		return
	}
	if t.lastActTurn == turn && c.Cycle-t.lastAct < t.Intra {
		return
	}
	req := t.pick(c, domain)
	if req == nil {
		return
	}
	cmd := dram.Command{Kind: dram.KindActivate, Rank: req.Addr.Rank, Bank: req.Addr.Bank, Row: req.Addr.Row, Domain: req.Domain}
	if !c.TryIssue(cmd) {
		return
	}
	c.RecordFirstCommand(req)
	req.Acted = true
	t.lastAct, t.lastActTurn = c.Cycle, turn
	var err error
	if req.Write {
		err = c.RemoveWrite(req)
	} else {
		err = c.RemoveRead(req)
	}
	if err != nil {
		c.ReportViolation(err)
	}
	t.started = append(t.started, req)
}

// pick chooses the oldest eligible request of the domain (reads before
// writes unless the write buffer is near full), skipping banks that already
// have a transaction in flight this turn.
func (t *TP) pick(c *mem.Controller, domain int) *mem.Request {
	preferWrites := len(c.WriteQ[domain]) >= c.Cfg.WriteCap*3/4
	order := [][]*mem.Request{c.ReadQ[domain], c.WriteQ[domain]}
	if preferWrites {
		order[0], order[1] = order[1], order[0]
	}
	for _, q := range order {
		for _, r := range q {
			if !t.bankBusy(r.Addr.Rank, r.Addr.Bank) {
				return r
			}
		}
	}
	return nil
}

func (t *TP) bankBusy(rank, bank int) bool {
	for _, req := range t.started {
		if req.Addr.Rank == rank && req.Addr.Bank == bank {
			return true
		}
	}
	return false
}

func (t *TP) issueCAS(c *mem.Controller, req *mem.Request) bool {
	kind := dram.KindReadAP
	dataStart := t.p.TCAS
	if req.Write {
		kind = dram.KindWriteAP
		dataStart = t.p.TCWD
	}
	cmd := dram.Command{Kind: kind, Rank: req.Addr.Rank, Bank: req.Addr.Bank, Col: req.Addr.Col, Domain: req.Domain}
	if !c.TryIssue(cmd) {
		return false
	}
	req.DataEnd = c.Cycle + int64(dataStart) + int64(t.p.TBURST)
	c.CompleteAt(req, req.DataEnd)
	return true
}

// ObsMetrics contributes the policy's configuration and live state to an
// observability snapshot (structurally satisfies obs.MetricSource).
func (t *TP) ObsMetrics(emit func(name string, value float64)) {
	emit("turn_length", float64(t.TurnLength))
	emit("reserve", float64(t.Res))
	emit("intra_spacing", float64(t.Intra))
	emit("domains", float64(t.domains))
	emit("inflight", float64(len(t.started)))
}
