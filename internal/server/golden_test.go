package server

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"fsmem/internal/addr"
	"fsmem/internal/dram"
	"fsmem/internal/fault"
	"fsmem/internal/sim"
	"fsmem/internal/workload"
)

// TestSingleChannelOutputPinned pins the fabric refactor's first
// correctness anchor: with one channel (the default), the canonical
// result document is byte-identical to the pre-fabric simulator's. The
// hashes were captured from the tree immediately before the fabric
// landed; a change here means single-channel behavior drifted.
func TestSingleChannelOutputPinned(t *testing.T) {
	cases := []struct {
		name  string
		sched sim.SchedulerKind
		wl    string
		cores int
		reads int64
		want  string
	}{
		{"fsrp-mcf4", sim.FSRankPart, "mcf", 4, 2000,
			"9bbc3b09806364a472e58f1b34fb5b3bbc0a23a56b9685e17dd6cab5dbfb2e80"},
		{"baseline-milc4", sim.Baseline, "milc", 4, 2000,
			"d5236e0660ce3512603c2277bcfe47fecc4766fef21ba83c24a5c2896a0571fe"},
		{"fsbp-mix8", sim.FSBankPart, "milc", 8, 1500,
			"0f053398ce131f6912093005886003e8646c8bdf63c2b41f61174b74c6a30041"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			mix, err := workload.Rate(c.wl, c.cores)
			if err != nil {
				t.Fatal(err)
			}
			cfg := sim.DefaultConfig(mix, c.sched)
			cfg.TargetReads = c.reads
			res, err := sim.Simulate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			doc, err := json.Marshal(Summarize(cfg, res))
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(doc)); got != c.want {
				t.Errorf("single-channel summary drifted from the pre-fabric simulator:\n got %s\nwant %s", got, c.want)
			}
		})
	}
}

// TestBaselineCornersPinned pins the FR-FCFS and TP corners the cases
// above miss: DDR4 bank-group timing, refresh management, bank-partitioned
// TP, a shared interleaved fabric, and a derated shadow checker (whose
// counts and traces join the summary). The hashes were captured before the
// Baseline's age-ordered view and per-bank probe memo landed; a change
// here means a scheduler or DRAM timing optimization altered results.
func TestBaselineCornersPinned(t *testing.T) {
	cases := []struct {
		name  string
		sched sim.SchedulerKind
		wl    string
		cores int
		reads int64
		tweak func(*sim.Config)
		want  string
	}{
		{"baseline-ddr4-milc8", sim.Baseline, "milc", 8, 5000,
			func(c *sim.Config) { c.DRAM = dram.DDR4_2400() },
			"ad494b79cd0836e23cc002105d173e69efba832f14fdf65b098581bcb3e1624c"},
		{"baseline-refresh-mcf8", sim.Baseline, "mcf", 8, 5000,
			func(c *sim.Config) { c.RefreshEnabled = true },
			"923282bf6cf6eae82eab13c9eb0062c096259cb026949bf40f72296d07b68ed3"},
		{"tpbp-milc8", sim.TPBank, "milc", 8, 4000, nil,
			"1e40aa4d3dddc59788f923b58f0204a7d5f26e6c2a25303c82e3d4df12637f07"},
		{"baseline-4ch-interleaved-lbm8", sim.Baseline, "lbm", 8, 5000,
			func(c *sim.Config) { c.Channels, c.Routing = 4, addr.RouteInterleaved },
			"6515eeecfb38153a8e26aa1d55961062be8b95e8d06246560dbbbf73ed4518bd"},
		{"baseline-derate-trcd-milc8", sim.Baseline, "milc", 8, 5000,
			func(c *sim.Config) { c.Fault, _ = fault.PlanByName("derate-trcd", 8, c.Seed) },
			"164a8dd309824b4f693e55badc7d6d8cb442f94f6d42cdcf9f34fd7c31ffecec"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			mix, err := workload.Rate(c.wl, c.cores)
			if err != nil {
				t.Fatal(err)
			}
			cfg := sim.DefaultConfig(mix, c.sched)
			cfg.TargetReads = c.reads
			if c.tweak != nil {
				c.tweak(&cfg)
			}
			res, err := sim.Simulate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// The monitor report joins the summary so the shadow checker's
			// counts and traces are pinned too; its violation messages are
			// diagnostics, not results.
			rep := *res.Monitor
			rep.Violations = nil
			doc, err := json.Marshal(struct {
				Summary SimulationSummary
				Monitor fault.Report
			}{Summarize(cfg, res), rep})
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(doc)); got != c.want {
				t.Errorf("summary drifted:\n got %s\nwant %s", got, c.want)
			}
		})
	}
}
