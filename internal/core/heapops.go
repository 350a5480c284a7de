package core

// Typed binary-heap primitives for the hot-path priority queues. The
// container/heap interface boxes every pushed and popped element into an
// interface value, which costs one heap allocation per operation for the
// multi-word items used here (candidate, vecEntry, Result); on
// a deep best-first descent those allocations dominate the profile. The
// generic siftUp/siftDown below operate on the concrete slices directly,
// so push/pop are allocation-free.
//
// before(a, b) reports whether a has strictly higher priority than b
// (must be popped first); it must be passed a non-capturing function so
// the call itself does not allocate. It takes pointers into the heap's own
// array: a candidate is 40 bytes, and a comparison by value would copy two
// of them.

func heapPush[T any](h *[]T, it T, before func(a, b *T) bool) {
	s := append(*h, it)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !before(&s[i], &s[p]) {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
	*h = s
}

// heapPop removes and returns the root. The last item sinks from the root
// through a moving hole — each level copies one child up instead of
// swapping two items — and is compared where it lies, in the slot the pop
// vacates, so nothing is copied out for the comparisons. The arrangement
// it leaves is the one a swap-based sift-down would.
func heapPop[T any](h *[]T, before func(a, b *T) bool) T {
	s := *h
	n := len(s) - 1
	top := s[0]
	last := &s[n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && before(&s[r], &s[l]) {
			m = r
		}
		if !before(&s[m], last) {
			break
		}
		s[i] = s[m]
		i = m
	}
	s[i] = *last
	var zero T
	*last = zero // release references held by the vacated slot
	*h = s[:n]
	return top
}

// heapFixTop restores the heap property after the root element changed
// in place (the typed analogue of heap.Fix(h, 0)).
func heapFixTop[T any](h *[]T, before func(a, b *T) bool) {
	s := *h
	n := len(s)
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && before(&s[r], &s[l]) {
			m = r
		}
		if !before(&s[m], &s[i]) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
}

// boundHeap: max-heap on the score bound ŝ(e).
func boundBefore(a, b *candidate) bool { return a.prio > b.prio }

func (h *boundHeap) push(it candidate) { heapPush((*[]candidate)(h), it, boundBefore) }
func (h *boundHeap) pop() candidate    { return heapPop((*[]candidate)(h), boundBefore) }
func (h *boundHeap) reset()            { *h = resetHeap(*h) }

// distHeap: min-heap on MINDIST.
func distBefore(a, b *candidate) bool { return a.prio < b.prio }

func (h *distHeap) push(it candidate) { heapPush((*[]candidate)(h), it, distBefore) }
func (h *distHeap) pop() candidate    { return heapPop((*[]candidate)(h), distBefore) }
func (h *distHeap) reset()            { *h = resetHeap(*h) }

// voronoiCell's node heap: min-heap on squared MINDIST.
func nodeBefore(a, b *nodeRef) bool { return a.dist2 < b.dist2 }

// resetHeap empties a pooled heap or side slice, keeping its backing array
// but zeroing the items a descent left in it. heapPop zeroes every slot it
// vacates, and a side slice only grows by append between resets, so
// afterwards the whole array is zero: an idle scratch keeps no keyword
// arena of an evicted node, and no other query garbage, alive.
func resetHeap[T any](h []T) []T {
	clear(h)
	return h[:0]
}

// comboHeap: max-heap on combination score.
func comboBefore(a, b *vecEntry) bool { return a.score > b.score }

func (h *comboHeap) push(it vecEntry) { heapPush((*[]vecEntry)(h), it, comboBefore) }
func (h *comboHeap) pop() vecEntry    { return heapPop((*[]vecEntry)(h), comboBefore) }
func (h *comboHeap) reset()           { *h = resetHeap(*h) }

// resultMinHeap: the worst kept result sits at the root.
func resultBefore(a, b *Result) bool { return betterResult(*b, *a) }

func (h *resultMinHeap) push(r Result) { heapPush((*[]Result)(h), r, resultBefore) }
func (h *resultMinHeap) fixTop()       { heapFixTop((*[]Result)(h), resultBefore) }
