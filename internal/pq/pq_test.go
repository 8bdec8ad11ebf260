package pq

import (
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
	if _, _, ok := q.Peek(); ok {
		t.Fatal("Peek on empty queue reported ok")
	}
	if q.Contains(0) {
		t.Fatal("Contains(0) on empty queue")
	}
	if q.Remove(3) {
		t.Fatal("Remove(3) on empty queue reported true")
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

func TestPushDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Push did not panic")
		}
	}()
	q := New(2)
	q.Push(1, 1)
	q.Push(1, 2)
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

func TestUpdateDecrease(t *testing.T) {
	q := New(4)
	q.Push(1, 10)
	q.Push(2, 20)
	q.Update(2, 5)
	id, p, _ := q.Pop()
	if id != 2 || p != 5 {
		t.Fatalf("after decrease, Pop = (%d,%g), want (2,5)", id, p)
	}
}

func TestUpdateIncrease(t *testing.T) {
	q := New(4)
	q.Push(1, 10)
	q.Push(2, 5)
	q.Update(2, 50)
	id, _, _ := q.Pop()
	if id != 1 {
		t.Fatalf("after increase, Pop id = %d, want 1", id)
	}
}

func TestUpdateInsertsWhenAbsent(t *testing.T) {
	q := New(2)
	q.Update(7, 3)
	if !q.Contains(7) {
		t.Fatal("Update did not insert absent id")
	}
	if p, ok := q.Priority(7); !ok || p != 3 {
		t.Fatalf("Priority(7) = (%g,%v), want (3,true)", p, ok)
	}
}

func TestRemoveMiddle(t *testing.T) {
	q := New(8)
	for i := 0; i < 8; i++ {
		q.Push(i, float64(i))
	}
	if !q.Remove(3) {
		t.Fatal("Remove(3) reported false")
	}
	if q.Contains(3) {
		t.Fatal("id 3 still present after Remove")
	}
	var got []int
	for q.Len() > 0 {
		id, _, _ := q.Pop()
		got = append(got, id)
	}
	want := []int{0, 1, 2, 4, 5, 6, 7}
	if len(got) != len(want) {
		t.Fatalf("popped %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("popped %v, want %v", got, want)
		}
	}
}

func TestRemoveLast(t *testing.T) {
	q := New(2)
	q.Push(1, 1)
	q.Push(2, 2)
	q.Remove(2)
	if q.Len() != 1 {
		t.Fatalf("Len = %d, want 1", q.Len())
	}
	id, _, _ := q.Pop()
	if id != 1 {
		t.Fatalf("Pop id = %d, want 1", id)
	}
}

func TestPriorityMissing(t *testing.T) {
	q := New(1)
	if _, ok := q.Priority(42); ok {
		t.Fatal("Priority(42) reported present on empty queue")
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

// TestQuickRandomOps drives a random operation sequence against a naive map
// model and checks Pop always returns the model minimum. Ids run to 100 while
// New is told 0, 10 or 100, so the position index has to grow on Push, and
// every step probes an id the queue has never seen (or a negative one), which
// must read as absent.
func TestQuickRandomOps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := New([]int{0, 10, 100}[rng.Intn(3)])
		model := map[int]float64{}
		for step := 0; step < 300; step++ {
			stranger := 100 + rng.Intn(1000)
			if rng.Intn(2) == 0 {
				stranger = -1 - rng.Intn(1000)
			}
			if _, ok := q.Priority(stranger); ok || q.Contains(stranger) || q.Remove(stranger) {
				return false
			}
			switch rng.Intn(4) {
			case 0: // push
				id := rng.Intn(100)
				if _, ok := model[id]; ok {
					continue
				}
				p := rng.Float64()
				q.Push(id, p)
				model[id] = p
			case 1: // update
				id := rng.Intn(100)
				p := rng.Float64()
				q.Update(id, p)
				model[id] = p
			case 2: // remove
				id := rng.Intn(100)
				_, inModel := model[id]
				if q.Remove(id) != inModel {
					return false
				}
				delete(model, id)
			case 3: // pop
				id, p, ok := q.Pop()
				if ok != (len(model) > 0) {
					return false
				}
				if !ok {
					continue
				}
				// p must be the minimum of the model.
				for _, mp := range model {
					if mp < p {
						return false
					}
				}
				if model[id] != p {
					return false
				}
				delete(model, id)
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

// TestOpsDoNotAllocate: once New has been told the handle range, no
// operation allocates.
func TestOpsDoNotAllocate(t *testing.T) {
	const n = 512
	rng := rand.New(rand.NewSource(3))
	prios := make([]float64, 2*n)
	for i := range prios {
		prios[i] = rng.Float64()
	}
	q := New(n)
	allocs := testing.AllocsPerRun(20, func() {
		for id := 0; id < n; id++ {
			q.Push(id, prios[id])
		}
		for id := 0; id < n; id += 3 {
			q.Update(id, prios[n+id])
		}
		for id := 1; id < n; id += 3 {
			q.Remove(id)
		}
		for q.Len() > 0 {
			q.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("Push/Update/Remove/Pop made %.0f allocations per run, want 0", allocs)
	}
}

func TestResetEmptiesAndKeepsWorking(t *testing.T) {
	q := New(4)
	for id := 0; id < 9; id++ { // past the hint, so the index has grown
		q.Push(id, float64(9-id))
	}
	q.Reset(2)
	if q.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", q.Len())
	}
	for id := 0; id < 9; id++ {
		if q.Contains(id) {
			t.Fatalf("id %d still queued after Reset", id)
		}
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
