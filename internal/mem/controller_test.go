package mem

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"fsmem/internal/dram"
	"fsmem/internal/fsmerr"
	"fsmem/internal/prefetch"
)

// nopSched issues nothing; tests drive the controller directly.
type nopSched struct{}

func (nopSched) Name() string     { return "nop" }
func (nopSched) Tick(*Controller) {}

func newCtl(domains int) *Controller {
	return NewController(dram.DDR3_1600(), DefaultConfig(domains), nopSched{})
}

func addr(rank, bank, row int) dram.Address { return dram.Address{Rank: rank, Bank: bank, Row: row} }

func TestEnqueueBackpressure(t *testing.T) {
	c := newCtl(2)
	for i := 0; i < c.Cfg.ReadCap; i++ {
		if !c.EnqueueRead(0, addr(0, 0, i), nil) {
			t.Fatalf("read %d rejected below capacity", i)
		}
	}
	if c.EnqueueRead(0, addr(0, 0, 99), nil) {
		t.Fatal("read accepted above capacity")
	}
	// Domain 1 is unaffected.
	if !c.EnqueueRead(1, addr(1, 0, 0), nil) {
		t.Fatal("other domain's queue should be independent")
	}
	for i := 0; i < c.Cfg.WriteCap; i++ {
		if !c.EnqueueWrite(0, addr(0, 1, i)) {
			t.Fatalf("write %d rejected below capacity", i)
		}
	}
	if c.EnqueueWrite(0, addr(0, 1, 99)) {
		t.Fatal("write accepted above capacity")
	}
	if c.PendingReads() != c.Cfg.ReadCap+1 || c.PendingWrites() != c.Cfg.WriteCap {
		t.Errorf("pending counts %d/%d", c.PendingReads(), c.PendingWrites())
	}
}

func TestCompletionOrderingAndStats(t *testing.T) {
	c := newCtl(1)
	var order []int
	mk := func(id int, cycle int64) {
		req := &Request{Domain: 0, Addr: addr(0, 0, id)}
		req.done = func() { order = append(order, id) }
		c.CompleteAt(req, cycle)
	}
	mk(2, 20)
	mk(1, 10)
	mk(3, 30)
	for i := 0; i < 40; i++ {
		c.Tick()
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("completion order %v", order)
	}
	if c.Dom[0].Reads != 3 {
		t.Errorf("Reads = %d", c.Dom[0].Reads)
	}
	if c.Dom[0].ReadLatencyCount != 3 || c.Dom[0].ReadLatencySum == 0 {
		t.Errorf("latency accounting: %+v", c.Dom[0])
	}
}

func TestFinishClassifiesRequests(t *testing.T) {
	c := newCtl(1)
	c.CompleteAt(&Request{Domain: 0, Write: true}, 1)
	c.CompleteAt(&Request{Domain: 0, Dummy: true}, 1)
	c.CompleteAt(&Request{Domain: 0, Prefetch: true}, 1)
	c.CompleteAt(&Request{Domain: 0}, 1)
	for i := 0; i < 3; i++ {
		c.Tick()
	}
	d := c.Dom[0]
	if d.Writes != 1 || d.Dummies != 1 || d.Prefetches != 1 || d.Reads != 1 {
		t.Errorf("classification: %+v", d)
	}
}

func TestPopAndRemove(t *testing.T) {
	c := newCtl(1)
	c.EnqueueRead(0, addr(0, 0, 1), nil)
	c.EnqueueRead(0, addr(0, 0, 2), nil)
	r := c.PopRead(0)
	if r == nil || r.Addr.Row != 1 {
		t.Fatalf("PopRead = %+v", r)
	}
	r2 := c.ReadQ[0][0]
	if err := c.RemoveRead(r2); err != nil {
		t.Fatalf("RemoveRead: %v", err)
	}
	if c.PendingReads() != 0 {
		t.Fatal("remove failed")
	}
	if c.PopRead(0) != nil {
		t.Fatal("pop from empty queue should be nil")
	}
	c.EnqueueWrite(0, addr(0, 0, 3))
	w := c.PopWrite(0)
	if w == nil || !w.Write {
		t.Fatalf("PopWrite = %+v", w)
	}
	if c.PopWrite(0) != nil {
		t.Fatal("pop from empty write queue should be nil")
	}

	if err := c.RemoveRead(&Request{Domain: 0}); err == nil {
		t.Error("removing a foreign request should return an error")
	} else if fsmerr.CodeOf(err) != fsmerr.CodeQueue {
		t.Errorf("foreign remove: code = %q, want %q", fsmerr.CodeOf(err), fsmerr.CodeQueue)
	}
	if err := c.RemoveWrite(&Request{Domain: 99}); err == nil {
		t.Error("removing with an out-of-range domain should return an error")
	} else if fsmerr.CodeOf(err) != fsmerr.CodeQueue {
		t.Errorf("out-of-range remove: code = %q, want %q", fsmerr.CodeOf(err), fsmerr.CodeQueue)
	}
}

func TestRecordFirstCommandQueueDelay(t *testing.T) {
	c := newCtl(1)
	c.EnqueueRead(0, addr(0, 0, 1), nil)
	req := c.ReadQ[0][0]
	for i := 0; i < 7; i++ {
		c.Tick()
	}
	c.RecordFirstCommand(req)
	if req.FirstCmd != 7 {
		t.Fatalf("FirstCmd = %d", req.FirstCmd)
	}
	if c.Dom[0].QueueDelaySum != 7 {
		t.Fatalf("QueueDelaySum = %d", c.Dom[0].QueueDelaySum)
	}
	// Idempotent.
	c.Tick()
	c.RecordFirstCommand(req)
	if c.Dom[0].QueueDelaySum != 7 {
		t.Error("RecordFirstCommand double-counted")
	}
}

func TestPrefetchBufferHit(t *testing.T) {
	c := newCtl(1)
	c.EnablePrefetch(func(int) *prefetch.Sandbox { return prefetch.New(c.P) })
	a := addr(0, 3, 42)
	// A completed prefetch fills the buffer.
	c.CompleteAt(&Request{Domain: 0, Prefetch: true, Addr: a}, 1)
	c.Tick()
	c.Tick()
	done := false
	if !c.EnqueueRead(0, a, func() { done = true }) {
		t.Fatal("read rejected")
	}
	if c.PendingReads() != 0 {
		t.Fatal("prefetch hit should not enter the read queue")
	}
	for i := 0; i < 3; i++ {
		c.Tick()
	}
	if !done {
		t.Fatal("prefetch-buffer hit did not complete quickly")
	}
	if c.Dom[0].UsefulPrefetches != 1 {
		t.Errorf("UsefulPrefetches = %d", c.Dom[0].UsefulPrefetches)
	}
	// The buffer entry is consumed: a second read goes to the queue.
	c.EnqueueRead(0, a, nil)
	if c.PendingReads() != 1 {
		t.Error("second read should miss the prefetch buffer")
	}
}

func TestPrefetchBufferEviction(t *testing.T) {
	c := NewController(dram.DDR3_1600(), Config{Domains: 1, ReadCap: 4, WriteCap: 4, PrefetchBufCap: 2}, nopSched{})
	c.EnablePrefetch(func(int) *prefetch.Sandbox { return prefetch.New(c.P) })
	for i := 0; i < 3; i++ {
		c.CompleteAt(&Request{Domain: 0, Prefetch: true, Addr: addr(0, 0, i)}, int64(i+1))
	}
	for i := 0; i < 6; i++ {
		c.Tick()
	}
	if got := len(c.pfBuf[0]); got != 2 {
		t.Fatalf("prefetch buffer size %d, want 2 (evicted oldest)", got)
	}
	// The oldest fill (row 0) must be the evicted one.
	if _, ok := c.pfBuf[0][lineKey(addr(0, 0, 0))]; ok {
		t.Error("oldest prefetch not evicted")
	}
}

func TestDrained(t *testing.T) {
	c := newCtl(1)
	if !c.Drained() {
		t.Fatal("fresh controller should be drained")
	}
	c.EnqueueRead(0, addr(0, 0, 1), nil)
	if c.Drained() {
		t.Fatal("queued read should block drained")
	}
}

// ageOracle is the order the age views must hold: the domain queues laid
// end to end, stably sorted by arrival.
func ageOracle(qs [][]*Request) []*Request {
	var all []*Request
	for _, q := range qs {
		all = append(all, q...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Arrive < all[j].Arrive })
	return all
}

func queued(qs [][]*Request) int {
	n := 0
	for _, q := range qs {
		n += len(q)
	}
	return n
}

// TestAgeViewsMatchStableMerge drives random enqueue, reject, remove and
// pop sequences and checks after every step that ReadAge/WriteAge equal
// the stable arrival-order merge of ReadQ/WriteQ and that the pending
// counts equal their lengths.
func TestAgeViewsMatchStableMerge(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := NewController(dram.DDR3_1600(), Config{Domains: 4, ReadCap: 6, WriteCap: 5}, nopSched{})
		pick := func(qs [][]*Request) *Request {
			d := rng.Intn(len(qs))
			if len(qs[d]) == 0 {
				return &Request{Domain: d} // not queued: removal must fail
			}
			return qs[d][rng.Intn(len(qs[d]))]
		}
		for step := 0; step < 2000; step++ {
			d := rng.Intn(c.Cfg.Domains)
			a := addr(rng.Intn(2), rng.Intn(8), rng.Intn(4))
			switch op := rng.Intn(10); {
			case op < 3:
				c.EnqueueRead(d, a, nil) // rejected when the queue is full
			case op < 5:
				c.EnqueueWrite(d, a)
			case op == 5:
				r := pick(c.ReadQ)
				in := slices.Contains(c.ReadQ[r.Domain], r)
				if err := c.RemoveRead(r); (err == nil) != in {
					t.Fatalf("seed %d step %d: RemoveRead err=%v, queued=%v", seed, step, err, in)
				}
			case op == 6:
				r := pick(c.WriteQ)
				in := slices.Contains(c.WriteQ[r.Domain], r)
				if err := c.RemoveWrite(r); (err == nil) != in {
					t.Fatalf("seed %d step %d: RemoveWrite err=%v, queued=%v", seed, step, err, in)
				}
			case op == 7:
				c.PopRead(d)
			case op == 8:
				c.PopWrite(d)
			default:
				// Several arrivals often share a cycle, in any domain order.
				c.Cycle += int64(rng.Intn(3))
			}
			if got, want := c.ReadAge(), ageOracle(c.ReadQ); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: ReadAge out of order", seed, step)
			}
			if got, want := c.WriteAge(), ageOracle(c.WriteQ); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: WriteAge out of order", seed, step)
			}
			if r, w := queued(c.ReadQ), queued(c.WriteQ); c.PendingReads() != r || c.PendingWrites() != w {
				t.Fatalf("seed %d step %d: pending %d/%d, queued %d/%d", seed, step,
					c.PendingReads(), c.PendingWrites(), r, w)
			}
		}
	}
}
