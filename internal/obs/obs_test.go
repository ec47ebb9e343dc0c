package obs

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	var g Gauge
	g.Set(7)
	g.Add(-3)
	if got := g.Load(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestNilReceiversSafe(t *testing.T) {
	// Every instrument must be a no-op on a nil receiver so optional
	// telemetry pointers can thread through hot paths unchecked.
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Load() != 0 {
		t.Fatal("nil counter load")
	}
	var g *Gauge
	g.Set(3)
	g.Add(1)
	if g.Load() != 0 {
		t.Fatal("nil gauge load")
	}
	var h *Histogram
	h.Observe(time.Second)
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatal("nil histogram snapshot")
	}
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("x").Set(1)
	r.Histogram("x").Observe(time.Second)
	r.BindCounter("x", &Counter{})
	if s := r.Snapshot(); len(s.Counters) != 0 {
		t.Fatal("nil registry snapshot")
	}
	var j *Journal
	j.Record(EvAccept, 0, 0, 0)
	if j.Len() != 0 || j.Dropped() != 0 || len(j.Events()) != 0 || len(j.Tail(5)) != 0 {
		t.Fatal("nil journal")
	}
}

func TestBucketFor(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2},
		{1023, 9}, {1024, 10}, {1 << 34, 34}, {1 << 40, HistogramBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketFor(c.ns); got != c.want {
			t.Errorf("bucketFor(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
}

func TestHistogramObserveAndMean(t *testing.T) {
	var h Histogram
	for i := 0; i < 10; i++ {
		h.Observe(100 * time.Nanosecond)
	}
	s := h.Snapshot()
	if s.Count != 10 || s.Sum != 1000 {
		t.Fatalf("count=%d sum=%d, want 10/1000", s.Count, s.Sum)
	}
	if s.Buckets[bucketFor(100)] != 10 {
		t.Fatalf("bucket miscount: %+v", s.Buckets)
	}
	if s.Mean() != 100*time.Nanosecond {
		t.Fatalf("mean = %v, want 100ns", s.Mean())
	}
	if (HistogramSnapshot{}).Mean() != 0 {
		t.Fatal("empty mean should be 0")
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.Observe(10 * time.Nanosecond)
	b.Observe(1000 * time.Nanosecond)
	b.Observe(2000 * time.Nanosecond)
	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Merge(sb)
	if sa.Count != 3 || sa.Sum != 3010 {
		t.Fatalf("merged count=%d sum=%d, want 3/3010", sa.Count, sa.Sum)
	}
	var total int64
	for _, n := range sa.Buckets {
		total += n
	}
	if total != 3 {
		t.Fatalf("merged bucket total = %d, want 3", total)
	}
}

func TestRegistryGetOrCreateAndBind(t *testing.T) {
	reg := NewRegistry()
	if reg.Counter("a") != reg.Counter("a") {
		t.Fatal("Counter not idempotent")
	}
	if reg.Gauge("g") != reg.Gauge("g") {
		t.Fatal("Gauge not idempotent")
	}
	if reg.Histogram("h") != reg.Histogram("h") {
		t.Fatal("Histogram not idempotent")
	}

	// A bound metric is shared: increments through the external owner
	// are visible in registry snapshots.
	var ext Counter
	reg.BindCounter("ext", &ext)
	ext.Add(9)
	snap := reg.Snapshot()
	if snap.Counters["ext"] != 9 {
		t.Fatalf("bound counter = %d, want 9", snap.Counters["ext"])
	}
	if reg.Counter("ext") != &ext {
		t.Fatal("bound counter not returned by get-or-create")
	}
}

func TestSnapshotJSONStable(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b").Add(2)
	reg.Counter("a").Add(1)
	reg.Gauge("z").Set(-3)
	reg.Histogram("lat").Observe(50 * time.Microsecond)
	s := reg.Snapshot()
	doc, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(doc, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["a"] != 1 || back.Counters["b"] != 2 || back.Gauges["z"] != -3 {
		t.Fatalf("round-trip mismatch: %+v", back)
	}
	if back.Histograms["lat"].Count != 1 {
		t.Fatalf("histogram lost in JSON round-trip: %+v", back.Histograms)
	}
}

// TestSnapshotConcurrentConsistency hammers one registry from
// GOMAXPROCS goroutines while snapshotting continuously, asserting
// every snapshot is internally consistent: counters never regress
// between snapshots, and histograms never show a torn read in the
// observable direction (Observe writes bucket before count, Snapshot
// reads count before buckets, so sum(buckets) >= count always).
func TestSnapshotConcurrentConsistency(t *testing.T) {
	reg := NewRegistry()
	writers := runtime.GOMAXPROCS(0)
	if writers < 4 {
		writers = 4
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := reg.Counter(fmt.Sprintf("c%d", w%4))
			h := reg.Histogram("lat")
			g := reg.Gauge("depth")
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				h.Observe(time.Duration(1 + i%100000))
				g.Set(int64(i))
			}
		}(w)
	}

	deadline := time.Now().Add(200 * time.Millisecond)
	var prev Snapshot
	snaps := 0
	for time.Now().Before(deadline) {
		s := reg.Snapshot()
		snaps++
		for name, v := range s.Counters {
			if v < 0 {
				t.Fatalf("negative counter %s = %d", name, v)
			}
			if pv, ok := prev.Counters[name]; ok && v < pv {
				t.Fatalf("counter %s regressed: %d -> %d", name, pv, v)
			}
		}
		for name, hs := range s.Histograms {
			var sum int64
			for _, n := range hs.Buckets {
				if n < 0 {
					t.Fatalf("negative bucket in %s", name)
				}
				sum += n
			}
			if sum < hs.Count {
				t.Fatalf("torn histogram %s: bucket sum %d < count %d", name, sum, hs.Count)
			}
			if hs.Count > 0 && hs.Sum <= 0 {
				t.Fatalf("histogram %s count %d with sum %d", name, hs.Count, hs.Sum)
			}
			if pv, ok := prev.Histograms[name]; ok && hs.Count < pv.Count {
				t.Fatalf("histogram %s count regressed: %d -> %d", name, pv.Count, hs.Count)
			}
		}
		prev = s
	}
	close(stop)
	wg.Wait()
	if snaps == 0 {
		t.Fatal("no snapshots taken")
	}

	// Quiescent: the final snapshot must balance exactly.
	final := reg.Snapshot()
	hs := final.Histograms["lat"]
	var sum int64
	for _, n := range hs.Buckets {
		sum += n
	}
	if sum != hs.Count {
		t.Fatalf("quiescent bucket sum %d != count %d", sum, hs.Count)
	}
}

// TestRegistryConcurrentGetOrCreate races get-or-create against
// snapshots to ensure no lost registrations or duplicate instruments.
func TestRegistryConcurrentGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	const names = 16
	ptrs := make([]*Counter, names)
	var mu sync.Mutex
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < names; i++ {
				c := reg.Counter(fmt.Sprintf("n%d", i))
				c.Inc()
				mu.Lock()
				if ptrs[i] == nil {
					ptrs[i] = c
				} else if ptrs[i] != c {
					mu.Unlock()
					t.Errorf("duplicate counter instance for n%d", i)
					return
				}
				mu.Unlock()
				_ = reg.Snapshot()
			}
		}()
	}
	wg.Wait()
	s := reg.Snapshot()
	var total int64
	for i := 0; i < names; i++ {
		total += s.Counters[fmt.Sprintf("n%d", i)]
	}
	if total != 8*names {
		t.Fatalf("total increments = %d, want %d", total, 8*names)
	}
}

// Counters bumped together with IncAll must agree in every concurrent
// snapshot: a total always equals the sum of its per-rank parts.
func TestIncAllAtomicInSnapshot(t *testing.T) {
	reg := NewRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rank := fmt.Sprintf("rank%d", w)
			for {
				select {
				case <-stop:
					return
				default:
				}
				reg.IncAll(rank, "total")
			}
		}(w)
	}
	for i := 0; i < 2000; i++ {
		s := reg.Snapshot()
		var sum int64
		for w := 0; w < 4; w++ {
			sum += s.Counters[fmt.Sprintf("rank%d", w)]
		}
		if sum != s.Counters["total"] {
			close(stop)
			wg.Wait()
			t.Fatalf("snapshot %d: rank sum %d != total %d", i, sum, s.Counters["total"])
		}
	}
	close(stop)
	wg.Wait()
	var nilReg *Registry
	nilReg.IncAll("x") // no-op on a nil registry
}

func TestJournalRecordAndTail(t *testing.T) {
	j := NewJournal(8)
	for i := 0; i < 5; i++ {
		j.Record(EvEnqueue, -1, int64(i), 0)
	}
	evs := j.Events()
	if len(evs) != 5 {
		t.Fatalf("len = %d, want 5", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("seq[%d] = %d, want %d", i, ev.Seq, i+1)
		}
		if ev.R != int64(i) {
			t.Fatalf("r[%d] = %d", i, ev.R)
		}
		if i > 0 && ev.At < evs[i-1].At {
			t.Fatalf("timestamps not monotone: %d then %d", evs[i-1].At, ev.At)
		}
	}
	tail := j.Tail(2)
	if len(tail) != 2 || tail[0].R != 3 || tail[1].R != 4 {
		t.Fatalf("tail = %+v", tail)
	}
	if got := j.Tail(100); len(got) != 5 {
		t.Fatalf("oversized tail = %d events", len(got))
	}
	if got := j.Tail(0); len(got) != 0 {
		t.Fatalf("zero tail = %d events", len(got))
	}
}

func TestJournalRingDrops(t *testing.T) {
	j := NewJournal(4)
	for i := 0; i < 10; i++ {
		j.Record(EvAccept, 0, int64(i), int64(i))
	}
	if j.Len() != 4 {
		t.Fatalf("len = %d, want 4", j.Len())
	}
	if j.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", j.Dropped())
	}
	evs := j.Events()
	// Oldest retained event is #7 (r=6).
	for i, ev := range evs {
		if ev.R != int64(6+i) {
			t.Fatalf("ring order wrong: %+v", evs)
		}
	}
}

func TestJournalAccepts(t *testing.T) {
	j := NewJournal(0)
	j.Record(EvEnqueue, -1, 1, 0)
	j.Record(EvAccept, -1, 1, 50)
	j.Record(EvRealign, -1, 2, 40)
	j.Record(EvAccept, -1, 2, 45)
	acc := j.Accepts()
	if len(acc) != 2 || acc[0].R != 1 || acc[1].R != 2 {
		t.Fatalf("accepts = %+v", acc)
	}
}

func TestJournalConcurrentRecord(t *testing.T) {
	j := NewJournal(1 << 10)
	var wg sync.WaitGroup
	const perG, gs = 500, 8
	for w := 0; w < gs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				j.Record(EvDispatch, int32(w), int64(i), 0)
				if i%16 == 0 {
					_ = j.Tail(8)
					_ = j.Len()
				}
			}
		}(w)
	}
	wg.Wait()
	if j.Len()+int(j.Dropped()) != perG*gs {
		t.Fatalf("len %d + dropped %d != %d", j.Len(), j.Dropped(), perG*gs)
	}
	evs := j.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("seq not strictly increasing at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
		if evs[i].At < evs[i-1].At {
			t.Fatalf("timestamps not monotone at %d", i)
		}
	}
}

func TestEventKindString(t *testing.T) {
	kinds := []EventKind{EvEnqueue, EvRealign, EvAccept, EvShadowReject,
		EvSpecWaste, EvDispatch, EvRedispatch, EvDuplicate, EvRankDown, EvRankJoin}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("kind %d has empty or duplicate name %q", k, s)
		}
		seen[s] = true
	}
	if EventKind(200).String() == "" {
		t.Fatal("unknown kind should still stringify")
	}
}
