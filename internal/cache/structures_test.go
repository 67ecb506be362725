package cache

import (
	"testing"

	"flashsim/internal/sim"
)

func TestWriteBufferAbsorbsUpToCapacity(t *testing.T) {
	wb := NewWriteBuffer(4)
	for i := 0; i < 4; i++ {
		proceed := wb.Push(sim.Ticks(i), 1000)
		if proceed != sim.Ticks(i) {
			t.Fatalf("store %d stalled with free slots: %d", i, proceed)
		}
	}
	// Fifth store must wait for the oldest drain.
	if proceed := wb.Push(10, 2000); proceed != 1000 {
		t.Fatalf("full buffer proceed = %d, want 1000", proceed)
	}
	if stalls, stallT := wb.Stalls(); stalls != 1 || stallT != 990 {
		t.Fatalf("stalls=%d stallT=%d", stalls, stallT)
	}
}

func TestWriteBufferExpiry(t *testing.T) {
	wb := NewWriteBuffer(2)
	wb.Push(0, 100)
	wb.Push(0, 100)
	// By t=200 both drained; new stores must not stall.
	if proceed := wb.Push(200, 300); proceed != 200 {
		t.Fatalf("drained buffer stalled: %d", proceed)
	}
	if wb.Occupied(200) != 1 {
		t.Fatalf("occupied %d", wb.Occupied(200))
	}
}

func TestWriteBufferDrainBy(t *testing.T) {
	wb := NewWriteBuffer(4)
	wb.Push(0, 500)
	wb.Push(0, 300)
	if got := wb.DrainBy(100); got != 500 {
		t.Fatalf("drain by = %d, want 500", got)
	}
	// Buffer empty afterwards.
	if got := wb.DrainBy(600); got != 600 {
		t.Fatalf("empty drain = %d", got)
	}
}

func TestWriteBufferOutOfOrderCompletions(t *testing.T) {
	wb := NewWriteBuffer(2)
	wb.Push(0, 900) // slow store
	wb.Push(0, 100) // fast store
	// Third store: one slot frees at 100 (the faster completion).
	if proceed := wb.Push(0, 500); proceed != 100 {
		t.Fatalf("proceed = %d, want 100 (earliest drain)", proceed)
	}
}

func TestMSHRMerge(t *testing.T) {
	m := NewMSHRs(4)
	m.Complete(0x100, 500)
	if done, ok := m.Lookup(0x100, 10); !ok || done != 500 {
		t.Fatalf("merge lookup: %d %v", done, ok)
	}
	if m.Merges() != 1 {
		t.Fatal("merge not counted")
	}
	if _, ok := m.Lookup(0x200, 10); ok {
		t.Fatal("lookup of absent line merged")
	}
}

func TestMSHRCapacityStall(t *testing.T) {
	m := NewMSHRs(2)
	m.Reserve(0x100, 0)
	m.Complete(0x100, 300)
	m.Reserve(0x200, 0)
	m.Complete(0x200, 500)
	// Third miss at t=10: both registers busy; earliest completes 300.
	if issue := m.Reserve(0x300, 10); issue != 300 {
		t.Fatalf("issue = %d, want 300", issue)
	}
	if stalls, _ := m.Stalls(); stalls != 1 {
		t.Fatalf("stalls %d", stalls)
	}
}

func TestMSHRExpiry(t *testing.T) {
	m := NewMSHRs(1)
	m.Reserve(0x100, 0)
	m.Complete(0x100, 100)
	// At t=200 the register is free.
	if issue := m.Reserve(0x200, 200); issue != 200 {
		t.Fatalf("issue = %d", issue)
	}
	if m.Outstanding(50) > 1 {
		t.Fatal("outstanding bound")
	}
}

// TestMSHRVictimTieBreak: with every register busy, the victim is the
// earliest completion, and among equal completions the lowest line
// address, whatever order the misses were recorded in.
func TestMSHRVictimTieBreak(t *testing.T) {
	orders := [][]uint64{
		{0x300, 0x100, 0x200, 0x400},
		{0x100, 0x200, 0x300, 0x400},
		{0x400, 0x300, 0x200, 0x100},
	}
	done := map[uint64]sim.Ticks{0x100: 700, 0x200: 500, 0x300: 500, 0x400: 900}
	for _, order := range orders {
		m := NewMSHRs(4)
		for _, a := range order {
			m.Reserve(a, 0)
			m.Complete(a, done[a])
		}
		// 0x200 and 0x300 tie at 500: 0x200 is freed first.
		if issue := m.Reserve(0x500, 10); issue != 500 {
			t.Fatalf("order %x: issue = %d, want 500", order, issue)
		}
		m.Complete(0x500, 1000)
		if _, ok := m.Lookup(0x200, 10); ok {
			t.Fatalf("order %x: 0x200 still outstanding, want it evicted", order)
		}
		if d, ok := m.Lookup(0x300, 10); !ok || d != 500 {
			t.Fatalf("order %x: 0x300 = (%d, %v), want outstanding until 500", order, d, ok)
		}
		// Next victim: 0x300, the remaining earliest.
		if issue := m.Reserve(0x600, 10); issue != 500 {
			t.Fatalf("order %x: second issue = %d, want 500", order, issue)
		}
		m.Complete(0x600, 1100)
		if _, ok := m.Lookup(0x300, 10); ok {
			t.Fatalf("order %x: 0x300 still outstanding", order)
		}
		if n := m.Outstanding(10); n != 4 {
			t.Fatalf("order %x: %d outstanding, want 4", order, n)
		}
		if n := m.Outstanding(900); n != 2 {
			t.Fatalf("order %x: %d outstanding at 900, want 2 (0x500, 0x600)", order, n)
		}
	}
}

// TestMSHRCompleteUpdatesInPlace: completing an outstanding line again
// moves its completion instead of taking a second register.
func TestMSHRCompleteUpdatesInPlace(t *testing.T) {
	m := NewMSHRs(2)
	m.Complete(0x100, 300)
	m.Complete(0x100, 400)
	if n := m.Outstanding(0); n != 1 {
		t.Fatalf("%d outstanding, want 1", n)
	}
	if d, _ := m.Lookup(0x100, 350); d != 400 {
		t.Fatalf("completion %d, want 400", d)
	}
}

func TestL2InterfaceDisabled(t *testing.T) {
	l := &L2Interface{Enabled: false, TransferTicks: 100}
	if l.AcquireForRefill(50) != 50 || l.AcquireForTagCheck(50) != 50 {
		t.Fatal("disabled interface must be free")
	}
}

func TestL2InterfaceTransfersSerialize(t *testing.T) {
	l := &L2Interface{Enabled: true, TransferTicks: 100}
	s1 := l.AcquireForRefill(0)
	s2 := l.AcquireForRefill(0)
	if s1 != 0 || s2 != 100 {
		t.Fatalf("transfer starts %d %d", s1, s2)
	}
}

func TestL2InterfaceTagCheckWaitsDuringTransfer(t *testing.T) {
	l := &L2Interface{Enabled: true, TransferTicks: 100}
	l.AcquireForRefill(50) // busy [50,150)
	if got := l.AcquireForTagCheck(75); got != 150 {
		t.Fatalf("tag check during transfer = %d, want 150", got)
	}
	// Before the transfer starts the interface is free — future
	// reservations must not block the past.
	if got := l.AcquireForTagCheck(10); got != 10 {
		t.Fatalf("tag check before transfer = %d, want 10", got)
	}
	// And after it completes.
	if got := l.AcquireForTagCheck(200); got != 200 {
		t.Fatalf("tag check after transfer = %d", got)
	}
}

func TestL2InterfaceStats(t *testing.T) {
	l := &L2Interface{Enabled: true, TransferTicks: 10}
	l.AcquireForRefill(0)
	l.AcquireForTagCheck(5)
	st := l.Stats()
	if st.Uses != 1 || st.Waited == 0 {
		t.Fatalf("stats %+v", st)
	}
}
