// Package pq implements an indexed binary min-heap keyed by float64
// priorities.
//
// The decimation algorithm in Algorithm 1 of the Canopus paper repeatedly
// pops the shortest edge from a priority queue, and every edge collapse
// changes the lengths of the edges incident to the new vertex. That access
// pattern needs three operations a plain container/heap cannot provide
// without O(n) scans: Update (re-key an arbitrary element), Remove (delete an
// arbitrary element), and Contains. The queue here keeps a position index so
// all three run in O(log n).
//
// Items are identified by a caller-chosen non-negative int handle (for
// Canopus, the edge id). Handles are expected to be dense: the position
// index is a slice addressed by handle, so the queue's memory is O(largest
// handle ever pushed), not O(items queued).
package pq

import (
	"fmt"
	"slices"
)

// Queue is an indexed min-priority queue. The zero value is ready to use.
// Queue is not safe for concurrent use.
type Queue struct {
	heap []entry // heap order: heap[0] has the smallest priority
	pos  []int32 // pos[id] is id's position in heap plus one; 0 means not queued
}

type entry struct {
	prio float64
	id   int
}

// less orders entries by priority, breaking ties on id so heap order (and
// therefore decimation) is deterministic across runs.
func less(a, b entry) bool {
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.id < b.id
}

// New returns a queue with capacity preallocated for n items with handles
// below n; pushing a larger handle grows the position index.
func New(n int) *Queue {
	q := &Queue{}
	q.Reset(n)
	return q
}

// Reset empties the queue and, reusing its storage where it can, leaves it
// with the capacity New(n) gives.
func (q *Queue) Reset(n int) {
	for _, e := range q.heap {
		q.pos[e.id] = 0
	}
	q.heap = slices.Grow(q.heap[:0], n)
	if len(q.pos) < n {
		q.pos = append(q.pos, make([]int32, n-len(q.pos))...)
	}
}

// Len reports the number of items currently queued.
func (q *Queue) Len() int { return len(q.heap) }

// at returns id's position in the heap, or -1 if id is not queued.
func (q *Queue) at(id int) int {
	if id < 0 || id >= len(q.pos) {
		return -1
	}
	return int(q.pos[id]) - 1
}

// Contains reports whether id is in the queue.
func (q *Queue) Contains(id int) bool { return q.at(id) >= 0 }

// Priority returns the current priority of id. The second result is false if
// id is not queued.
func (q *Queue) Priority(id int) (float64, bool) {
	i := q.at(id)
	if i < 0 {
		return 0, false
	}
	return q.heap[i].prio, true
}

// Push inserts id with the given priority. It panics if id is negative or
// already queued; use Update to re-key an existing item.
func (q *Queue) Push(id int, priority float64) {
	if id < 0 {
		panic(fmt.Sprintf("pq: Push of negative id %d", id))
	}
	if q.at(id) >= 0 {
		panic(fmt.Sprintf("pq: Push of queued id %d", id))
	}
	if id >= len(q.pos) {
		q.pos = append(q.pos, make([]int32, id+1-len(q.pos))...)
	}
	q.heap = append(q.heap, entry{})
	q.up(len(q.heap)-1, entry{prio: priority, id: id})
}

// Pop removes and returns the id with the smallest priority. ok is false if
// the queue is empty.
func (q *Queue) Pop() (id int, priority float64, ok bool) {
	if len(q.heap) == 0 {
		return 0, 0, false
	}
	top := q.heap[0]
	q.removeAt(0)
	return top.id, top.prio, true
}

// Peek returns the id with the smallest priority without removing it.
func (q *Queue) Peek() (id int, priority float64, ok bool) {
	if len(q.heap) == 0 {
		return 0, 0, false
	}
	return q.heap[0].id, q.heap[0].prio, true
}

// Update changes the priority of id, inserting it if absent.
func (q *Queue) Update(id int, priority float64) {
	i := q.at(id)
	if i < 0 {
		q.Push(id, priority)
		return
	}
	old := q.heap[i].prio
	e := entry{prio: priority, id: id}
	switch {
	case priority < old:
		q.up(i, e)
	case priority > old:
		q.down(i, e)
	default:
		q.heap[i] = e
	}
}

// Remove deletes id from the queue. It reports whether id was present.
func (q *Queue) Remove(id int) bool {
	i := q.at(id)
	if i < 0 {
		return false
	}
	q.removeAt(i)
	return true
}

// removeAt deletes the entry in slot i by moving the last entry into it.
func (q *Queue) removeAt(i int) {
	last := len(q.heap) - 1
	moved := q.heap[last]
	q.pos[q.heap[i].id] = 0
	q.heap = q.heap[:last]
	if i < last {
		// The moved entry may need to go either way.
		q.down(i, moved)
		q.up(i, q.heap[i])
	}
}

// up places e at slot i or above: ancestors larger than e shift down into
// the hole until e fits.
func (q *Queue) up(i int, e entry) {
	for i > 0 {
		parent := (i - 1) / 2
		if !less(e, q.heap[parent]) {
			break
		}
		q.set(i, q.heap[parent])
		i = parent
	}
	q.set(i, e)
}

// down places e at slot i or below: the smaller child shifts up into the
// hole until e is no larger than both children.
func (q *Queue) down(i int, e entry) {
	n := len(q.heap)
	for {
		l, r := 2*i+1, 2*i+2
		smallest, min := i, e
		if l < n && less(q.heap[l], min) {
			smallest, min = l, q.heap[l]
		}
		if r < n && less(q.heap[r], min) {
			smallest = r
		}
		if smallest == i {
			break
		}
		q.set(i, q.heap[smallest])
		i = smallest
	}
	q.set(i, e)
}

func (q *Queue) set(i int, e entry) {
	q.heap[i] = e
	q.pos[e.id] = int32(i + 1)
}
