package sim

import "testing"

// The testing.AllocsPerRun guards backing the //accellint:noalloc
// annotations in this package (the guard=TestName arguments name these
// tests; TestNoallocGuardsExist in internal/analysis cross-validates the
// pairing). Each guard warms the cold-start allocations first — wheel
// arrays, pool growth — then pins the steady state at zero.

func TestWakerZeroAlloc(t *testing.T) {
	k := NewKernel()
	fired := 0
	w := NewWaker(k, func() { fired++ })
	w.Wake() // cold start: wheel arrays + first event record
	k.RunAll()
	if a := testing.AllocsPerRun(500, func() {
		w.Wake()
		w.Wake() // coalesces: pending, no second event
		k.RunAll()
	}); a != 0 {
		t.Fatalf("steady-state Wake allocates %v/op, want 0", a)
	}
	if fired == 0 {
		t.Fatal("waker never fired")
	}
}

// TestQueueZeroAllocPerWord backs the //accellint:noalloc annotations on
// TryPush and TryPop: moving a block through a subscribed queue word by
// word, with the wake-ups drained, allocates nothing.
func TestQueueZeroAllocPerWord(t *testing.T) {
	k := NewKernel()
	q := NewQueue("g", 64)
	q.SubscribeData(NewWaker(k, func() {}))
	q.SubscribeSpace(NewWaker(k, func() {}))
	const block = 48
	move := func() {
		for i := 0; i < block; i++ {
			if !q.TryPush(Word(i)) {
				t.Fatal("push rejected")
			}
		}
		for i := 0; i < block; i++ {
			if v, ok := q.TryPop(); !ok || v != Word(i) {
				t.Fatalf("pop %d = %d, %v", i, v, ok)
			}
		}
		k.RunAll()
	}
	move() // cold start: first wake-up events and wheel arrays
	if a := testing.AllocsPerRun(500, move); a != 0 {
		t.Fatalf("steady-state TryPush/TryPop allocates %v/op, want 0", a)
	}
}

func TestKernelZeroAllocOverflow(t *testing.T) {
	k := NewKernel()
	fn := func() {}
	// Warm the overflow heap past the working-set high-water mark: the heap
	// keeps its backing array across pops (popOverflow re-slices in place),
	// so steady-state far-future scheduling reuses it.
	for i := 0; i < 64; i++ {
		k.Schedule(wheelSize+Time(i), fn)
	}
	k.RunAll()
	if a := testing.AllocsPerRun(200, func() {
		for i := 0; i < 32; i++ {
			k.Schedule(wheelSize+Time(i%7)+1, fn)
		}
		k.RunAll()
	}); a != 0 {
		t.Fatalf("steady-state overflow scheduling allocates %v/op, want 0", a)
	}
}
