package core

// Typed binary-heap primitives for the priority queues. The
// container/heap interface boxes every pushed and popped element into an
// interface value, which costs one heap allocation per operation for the
// multi-word items used here (candidate, vecEntry, Result); on a deep
// best-first descent those allocations dominate the profile. boundHeap,
// the hot one, is written out: under GC-shape stenciling the helpers'
// func-value comparator is not inlined, an indirect call per sift step.
//
// before(a, b) reports whether a has strictly higher priority than b
// (must be popped first); it must be passed a non-capturing function so
// the call itself does not allocate. It takes pointers into the heap's own
// array: the items are several words each, and a comparison by value would
// copy two of them.

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

// push sifts it up through a moving hole, comparing as heapPush does.
func (h *boundHeap) push(it candidate) {
	s := append(*h, it)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !(it.prio > s[p].prio) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = it
	*h = s
}

// pop removes the root bottom-up (Floyd): the hole sinks along the larger
// child, chosen without a branch (UCOMISD, SETHI under -gcflags=-S); the
// last item climbs back while its parent is not strictly greater. heapPop
// stops above the first child not strictly greater, so climbing over ties
// leaves its arrangement. The vacated slot keeps no pointer to zero.
func (h *boundHeap) pop() candidate {
	s := *h
	n := len(s) - 1
	top := s[0]
	i := 0
	for r := 2; r < n; r = 2*i + 2 {
		m := r - 1 + b2i(s[r].prio > s[r-1].prio)
		s[i] = s[m]
		i = m
	}
	if l := 2*i + 1; l < n { // a lone last child
		s[i] = s[l]
		i = l
	}
	last := s[n]
	for i > 0 {
		p := (i - 1) / 2
		if s[p].prio > last.prio {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = last
	*h = s[:n]
	return top
}

// b2i is 1 for true and 0 for false; the compiler lowers it to a SETcc.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// voronoiCell's heap: min-heap on squared distance, nodes before features
// at a tie, features by x, then y.
func sweepBefore(a, b *sweepRef) bool {
	if a.dist2 != b.dist2 {
		return a.dist2 < b.dist2
	}
	if a.point != b.point {
		return b.point
	}
	return a.p.X < b.p.X || a.p.X == b.p.X && a.p.Y < b.p.Y
}

// resetHeap empties a generic heap or a side slice, keeping its backing
// array but zeroing the items a descent left in it. heapPop zeroes every
// slot it vacates, and a side slice only grows by append between resets,
// so afterwards the whole array is zero: an idle scratch keeps no keyword
// arena of an evicted node, and no other query garbage, alive. A boundHeap
// is only truncated: a candidate holds no pointer.
func resetHeap[T any](h []T) []T {
	clear(h)
	return h[:0]
}

// comboHeap: max-heap on combination score.
func comboBefore(a, b *vecEntry) bool { return a.score > b.score }

func (h *comboHeap) push(it vecEntry) { heapPush((*[]vecEntry)(h), it, comboBefore) }
func (h *comboHeap) pop() vecEntry    { return heapPop((*[]vecEntry)(h), comboBefore) }
func (h *comboHeap) reset()           { *h = resetHeap(*h) }

// A partner queue's near order: max-heap on κ.
func keyedBefore(a, b *keyed) bool { return a.key > b.key }

func (h *keyHeap) push(it keyed) { heapPush((*[]keyed)(h), it, keyedBefore) }
func (h *keyHeap) pop() keyed    { return heapPop((*[]keyed)(h), keyedBefore) }
func (h *keyHeap) fixTop()       { heapFixTop((*[]keyed)(h), keyedBefore) }

// resultMinHeap: the worst kept result sits at the root.
func resultBefore(a, b *Result) bool { return betterResult(*b, *a) }

func (h *resultMinHeap) push(r Result) { heapPush((*[]Result)(h), r, resultBefore) }
func (h *resultMinHeap) fixTop()       { heapFixTop((*[]Result)(h), resultBefore) }
