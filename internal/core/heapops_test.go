package core

import (
	"math"
	"math/rand"
	"testing"
)

// boundBefore is boundHeap's order for the generic heapPush/heapPop, the
// reference the concrete methods are held to.
func boundBefore(a, b *candidate) bool { return a.prio > b.prio }

// boundHeapPrios are the priorities the lockstep checks draw from: few of
// them, so ties are the rule, and +0 beside −0, which compare equal.
var boundHeapPrios = [...]float64{0, math.Copysign(0, -1), 1, 0.5, -1, 2}

// checkBoundHeapLockstep runs ops on a boundHeap and, beside it, on a
// slice driven by the generic heapPush/heapPop with boundBefore, then
// drains both. An op below 64 pops (when the heap is not empty); any other
// pushes a candidate whose priority is one of the first levels of
// boundHeapPrios and whose ref is unique, so a moved tie shows. Every
// popped candidate and the whole heap array after every operation must be
// the same, bit for bit.
func checkBoundHeapLockstep(t *testing.T, ops []byte, levels int) {
	t.Helper()
	var got boundHeap
	var want []candidate
	same := func(a, b candidate) bool {
		return a.ref == b.ref && math.Float64bits(a.prio) == math.Float64bits(b.prio)
	}
	check := func(step int, what string) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("op %d (%s): %d candidates queued, generic heap has %d", step, what, len(got), len(want))
		}
		for i := range want {
			if !same(got[i], want[i]) {
				t.Fatalf("op %d (%s): slot %d holds ref %d prio %v, generic heap ref %d prio %v",
					step, what, i, got[i].ref, got[i].prio, want[i].ref, want[i].prio)
			}
		}
	}
	pop := func(step int) {
		t.Helper()
		g, w := got.pop(), heapPop(&want, boundBefore)
		if !same(g, w) {
			t.Fatalf("op %d: popped ref %d prio %v, generic heap popped ref %d prio %v", step, g.ref, g.prio, w.ref, w.prio)
		}
		check(step, "pop")
	}
	for i, op := range ops {
		if op < 64 {
			if len(want) > 0 {
				pop(i)
			}
			continue
		}
		c := candidate{prio: boundHeapPrios[int(op)%levels], ref: int64(i), slot: slotFinal}
		got.push(c)
		heapPush(&want, c, boundBefore)
		check(i, "push")
	}
	for len(want) > 0 {
		pop(len(ops))
	}
}

// The concrete boundHeap must leave exactly the arrangement the generic
// heap leaves, so that a query pops the same candidates in the same order,
// ties included: 2,000 random sequences of 400 operations over 1–6
// priority levels, one pop for every one to three pushes.
func TestBoundHeapMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	ops := make([]byte, 400)
	for seq := 0; seq < 2000; seq++ {
		popBelow := 64 + rng.Intn(64) // one op in four to one in two pops
		for i := range ops {
			ops[i] = byte(rng.Intn(256))
			if int(ops[i]) < popBelow {
				ops[i] %= 64
			} else {
				ops[i] |= 64
			}
		}
		checkBoundHeapLockstep(t, ops, 1+seq%len(boundHeapPrios))
	}
}

func FuzzBoundHeap(f *testing.F) {
	f.Add([]byte{64, 65, 66, 67, 68, 69, 70, 71, 72, 0, 0, 0}, uint8(1))
	f.Add([]byte{200, 201, 202, 203, 204, 205, 206, 0, 207, 208, 0, 0, 209}, uint8(1))
	f.Add([]byte{64, 65, 64, 65, 64, 65, 64, 0, 65, 0, 64, 64, 0}, uint8(2))
	f.Add([]byte{66, 67, 68, 69, 70, 71, 72, 73, 74, 75, 0, 76, 77, 0, 0, 78}, uint8(5))
	f.Add([]byte{71, 68, 69, 0}, uint8(5)) // 2, 1, 0.5: the pop ends at a lone last child
	f.Fuzz(func(t *testing.T, ops []byte, levels uint8) {
		checkBoundHeapLockstep(t, ops, 1+int(levels)%len(boundHeapPrios))
	})
}
