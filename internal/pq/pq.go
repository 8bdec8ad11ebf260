// Package pq implements a binary min-heap of int handles keyed by float64
// priorities.
//
// The decimation algorithm in Algorithm 1 of the Canopus paper repeatedly
// pops the shortest edge from a priority queue, and every edge collapse
// retires the edges of its two endpoints and queues the edges of the new
// vertex. The decimator deletes lazily: a retired edge stays queued and is
// skipped when it surfaces, so the queue needs only Push and Pop.
//
// Entries pop in a strict total order, (priority, handle), with NaN after
// every number, so the sequence of pops depends only on the set of queued
// entries, never on the heap's shape or the history that built it.
package pq

import (
	"math"
	"slices"
)

// Queue is a min-priority queue. The zero value is ready to use.
// Queue is not safe for concurrent use.
type Queue struct {
	heap []entry // heap order: heap[0] is the least entry
}

type entry struct {
	prio float64
	id   int
}

// less is a strict total order: priority first, NaN after every number and
// equal to itself, then the handle.
func less(a, b entry) bool {
	if a.prio < b.prio {
		return true
	}
	if a.prio > b.prio {
		return false
	}
	aNaN, bNaN := math.IsNaN(a.prio), math.IsNaN(b.prio)
	if aNaN != bNaN {
		return bNaN
	}
	return a.id < b.id
}

// New returns a queue with capacity preallocated for n items.
func New(n int) *Queue {
	q := &Queue{}
	q.Reset(n)
	return q
}

// Reset empties the queue and, reusing its storage where it can, leaves it
// with the capacity New(n) gives.
func (q *Queue) Reset(n int) { q.heap = slices.Grow(q.heap[:0], n) }

// Len reports the number of items currently queued.
func (q *Queue) Len() int { return len(q.heap) }

// Push inserts id with the given priority. The queue does not look for id
// among the queued items: pushing it twice queues it twice.
func (q *Queue) Push(id int, priority float64) {
	e := entry{prio: priority, id: id}
	q.heap = append(q.heap, e)
	i := len(q.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !less(e, q.heap[parent]) {
			break
		}
		q.heap[i] = q.heap[parent]
		i = parent
	}
	q.heap[i] = e
}

// Pop removes and returns the least item. ok is false if the queue is empty.
func (q *Queue) Pop() (id int, priority float64, ok bool) {
	if len(q.heap) == 0 {
		return 0, 0, false
	}
	top := q.heap[0]
	last := len(q.heap) - 1
	e := q.heap[last]
	q.heap = q.heap[:last]
	if last > 0 {
		// Sift the former last entry down from the root: the smaller child
		// shifts up into the hole until e is no larger than both children.
		i := 0
		for {
			c := 2*i + 1
			if c >= last {
				break
			}
			if r := c + 1; r < last && less(q.heap[r], q.heap[c]) {
				c = r
			}
			if !less(q.heap[c], e) {
				break
			}
			q.heap[i] = q.heap[c]
			i = c
		}
		q.heap[i] = e
	}
	return top.id, top.prio, true
}
