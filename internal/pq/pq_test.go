package pq

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyQueue(t *testing.T) {
	var q Queue
	if q.Len() != 0 {
		t.Fatalf("Len() = %d, want 0", q.Len())
	}
	if _, _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty queue reported ok")
	}
}

func TestPushPopOrdering(t *testing.T) {
	q := New(8)
	q.Push(10, 3.0)
	q.Push(11, 1.0)
	q.Push(12, 2.0)
	wantIDs := []int{11, 12, 10}
	wantPrio := []float64{1, 2, 3}
	for i := range wantIDs {
		id, p, ok := q.Pop()
		if !ok {
			t.Fatalf("Pop %d: queue empty early", i)
		}
		if id != wantIDs[i] || p != wantPrio[i] {
			t.Fatalf("Pop %d = (%d, %g), want (%d, %g)", i, id, p, wantIDs[i], wantPrio[i])
		}
	}
}

func TestTieBreakDeterministic(t *testing.T) {
	// Equal priorities must pop in id order.
	q := New(4)
	q.Push(9, 5)
	q.Push(2, 5)
	q.Push(7, 5)
	var got []int
	for q.Len() > 0 {
		id, _, _ := q.Pop()
		got = append(got, id)
	}
	want := []int{2, 7, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tie-break order %v, want %v", got, want)
		}
	}
}

// TestHeapSortAgainstSort pushes random values and checks the pop sequence is
// sorted, using Go's sort as the oracle.
func TestHeapSortAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 1000
	vals := make([]float64, n)
	q := New(n)
	for i := range vals {
		vals[i] = rng.NormFloat64()
		q.Push(i, vals[i])
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	for i := 0; i < n; i++ {
		_, p, ok := q.Pop()
		if !ok {
			t.Fatalf("queue empty after %d pops, want %d", i, n)
		}
		if p != sorted[i] {
			t.Fatalf("pop %d priority %g, want %g", i, p, sorted[i])
		}
	}
}

// TestDuplicateHandlePopsTwice: Push does not look for a queued handle, so a
// handle pushed twice pops twice, each time with its own priority.
func TestDuplicateHandlePopsTwice(t *testing.T) {
	q := New(2)
	q.Push(1, 2)
	q.Push(1, 1)
	for i, want := range []float64{1, 2} {
		if id, p, ok := q.Pop(); !ok || id != 1 || p != want {
			t.Fatalf("Pop %d = (%d, %g, %v), want (1, %g, true)", i, id, p, ok, want)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after popping both, want 0", q.Len())
	}
}

// byOrder sorts entries by the order the queue must pop them in: priority
// with NaN last, then handle.
func byOrder(es []entry) {
	sort.Slice(es, func(a, b int) bool {
		pa, pb := es[a].prio, es[b].prio
		switch na, nb := math.IsNaN(pa), math.IsNaN(pb); {
		case na != nb:
			return nb
		case !na && pa != pb:
			return pa < pb
		}
		return es[a].id < es[b].id
	})
}

// TestNaNPrioritiesTotalOrder: NaN priorities pop after every number, in
// handle order, and never disturb the order of the numbers around them.
func TestNaNPrioritiesTotalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 500
	var es []entry
	q := New(n)
	for id := 0; id < n; id++ {
		p := float64(rng.Intn(20)) // many ties
		switch rng.Intn(4) {
		case 0:
			p = math.NaN()
		case 1:
			p = math.Inf(1 - 2*rng.Intn(2))
		}
		es = append(es, entry{p, id})
		q.Push(id, p)
	}
	byOrder(es)
	for i, want := range es {
		id, p, ok := q.Pop()
		if !ok || id != want.id || !(p == want.prio || math.IsNaN(p) && math.IsNaN(want.prio)) {
			t.Fatalf("pop %d = (%d, %g, %v), want (%d, %g)", i, id, p, ok, want.id, want.prio)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after %d pops, want 0", q.Len(), n)
	}
}

// TestPopOrderIndependentOfHistory: a queue pops its live entries in the
// same order whatever stale entries share the heap with them and whatever
// order everything was pushed in, which is what lets the decimator delete
// lazily without moving a single collapse.
func TestPopOrderIndependentOfHistory(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	prio := func() float64 {
		if rng.Intn(5) == 0 {
			return math.NaN()
		}
		return float64(rng.Intn(8))
	}
	live := make([]float64, 200)
	fresh, worn := New(0), New(0)
	for id := range live {
		live[id] = prio()
		fresh.Push(id, live[id])
	}
	// worn gets the live entries in reverse, each after zero to two stale
	// ones (handles from len(live) up).
	stale := len(live)
	for id := len(live) - 1; id >= 0; id-- {
		for k := rng.Intn(3); k > 0; k-- {
			worn.Push(stale, prio())
			stale++
		}
		worn.Push(id, live[id])
	}
	for i := 0; fresh.Len() > 0; i++ {
		want, _, _ := fresh.Pop()
		got, _, _ := worn.Pop()
		for got >= len(live) { // skip stale entries, as the decimator does
			got, _, _ = worn.Pop()
		}
		if got != want {
			t.Fatalf("live pop %d: fresh queue gave %d, worn one %d", i, want, got)
		}
	}
}

// TestQuickRandomOps drives random interleavings of Push and Pop, with
// duplicate handles and tied priorities, against a sorted-slice model: every
// Pop must return the model's least entry.
func TestQuickRandomOps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := New([]int{0, 10, 100}[rng.Intn(3)])
		var model []entry // kept in pop order
		for step := 0; step < 300; step++ {
			if rng.Intn(3) != 0 { // push
				e := entry{float64(rng.Intn(50)) / 7, rng.Intn(100)}
				q.Push(e.id, e.prio)
				model = append(model, e)
				byOrder(model)
			} else { // pop
				id, p, ok := q.Pop()
				if ok != (len(model) > 0) {
					return false
				}
				if ok {
					if id != model[0].id || p != model[0].prio {
						return false
					}
					model = model[1:]
				}
			}
			if q.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestOpsDoNotAllocate: once New has been told the size, Push and Pop do not
// allocate.
func TestOpsDoNotAllocate(t *testing.T) {
	const n = 512
	rng := rand.New(rand.NewSource(3))
	prios := make([]float64, n)
	for i := range prios {
		prios[i] = rng.Float64()
	}
	q := New(n)
	allocs := testing.AllocsPerRun(20, func() {
		for id := 0; id < n; id++ {
			q.Push(id, prios[id])
			if id%3 == 0 {
				q.Pop()
			}
		}
		for q.Len() > 0 {
			q.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("Push/Pop made %.0f allocations per run, want 0", allocs)
	}
}

func TestResetEmptiesAndKeepsWorking(t *testing.T) {
	q := New(4)
	for id := 0; id < 9; id++ { // past the hint, so the heap has grown
		q.Push(id, float64(9-id))
	}
	q.Reset(2)
	if q.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", q.Len())
	}
	if _, _, ok := q.Pop(); ok {
		t.Fatal("Pop after Reset reported ok")
	}
	q.Push(7, 2)
	q.Push(3, 1)
	if id, _, _ := q.Pop(); id != 3 {
		t.Fatalf("Pop after Reset = %d, want 3", id)
	}
}

func BenchmarkPushPop(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	prios := make([]float64, 1024)
	for i := range prios {
		prios[i] = rng.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := New(len(prios))
		for id, p := range prios {
			q.Push(id, p)
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}
}

// BenchmarkDecimationPattern replays the decimator's use of the queue, which
// BenchmarkPushPop's fill-then-drain does not: about 116k seed entries (the
// edges of a 39,200-vertex mesh), then one collapse per live pop, each
// pushing six new entries a little above the popped priority and leaving
// six older ones stale, skipped when they surface. It reports the time per
// collapse and per queue operation.
func BenchmarkDecimationPattern(b *testing.B) {
	const (
		seeds     = 116_000
		collapses = seeds / 6
		ring      = 6   // entries pushed, and entries gone stale, per collapse
		lag       = 500 // collapses between a push and its going stale
	)
	rng := rand.New(rand.NewSource(7))
	prios := make([]float64, seeds+ring*collapses)
	for i := range prios[:seeds] {
		prios[i] = rng.Float64()
	}
	steps := prios[seeds:]
	for i := range steps {
		steps[i] = 0.05 * rng.Float64()
	}
	stale := make([]bool, len(prios))
	var q Queue
	var ops int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(stale)
		q.Reset(seeds)
		for id, p := range prios[:seeds] {
			q.Push(id, p)
		}
		ops += seeds
		next := seeds
		for c := 0; c < collapses; c++ {
			id, p, ok := q.Pop()
			ops++
			for ok && stale[id] {
				id, p, ok = q.Pop()
				ops++
			}
			if !ok {
				b.Fatal("queue ran dry")
			}
			stale[id] = true
			for k := 0; k < ring; k++ {
				q.Push(next, p+prios[next])
				next++
			}
			ops += ring
			if old := next - ring*lag; old >= seeds {
				for k := 0; k < ring; k++ {
					stale[old-1-k] = true
				}
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*collapses), "ns/collapse")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ops), "ns/queue-op")
}
