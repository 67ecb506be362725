package sim

import (
	"math/rand"
	"testing"
)

// refServer is the straightforward Server: a linear scan from the
// oldest interval and an insert that reslices and appends. Server must
// reproduce it exactly; it is kept here as the reference.
type refServer struct {
	busy   []interval
	busyT  Ticks
	uses   uint64
	waited Ticks
	maxQ   Ticks
}

func (s *refServer) schedule(t, dur Ticks) Ticks {
	start := t
	for _, iv := range s.busy {
		if start+dur <= iv.start {
			break
		}
		if start < iv.end {
			start = iv.end
		}
	}
	return start
}

func (s *refServer) Acquire(t, dur Ticks) (start, done Ticks) {
	start = s.schedule(t, dur)
	wait := start - t
	s.waited += wait
	if wait > s.maxQ {
		s.maxQ = wait
	}
	done = start + dur
	s.insert(interval{start, done})
	s.busyT += dur
	s.uses++
	return start, done
}

func (s *refServer) insert(iv interval) {
	i := len(s.busy)
	for i > 0 && s.busy[i-1].start > iv.start {
		i--
	}
	s.busy = append(s.busy, interval{})
	copy(s.busy[i+1:], s.busy[i:])
	s.busy[i] = iv
	if len(s.busy) > maxIntervals {
		s.busy[1].start = s.busy[0].start
		if s.busy[0].end > s.busy[1].end {
			s.busy[1].end = s.busy[0].end
		}
		s.busy = s.busy[1:]
	}
}

func (s *refServer) Peek(t Ticks) Ticks { return s.schedule(t, 1) }

func (s *refServer) Stats() Stats {
	return Stats{Uses: s.uses, Busy: s.busyT, Waited: s.waited, MaxWait: s.maxQ}
}

// TestServerMatchesReference drives Server and refServer with the same
// random requests: arrivals that run ahead of and behind a moving
// frontier, zero-length reservations, Peek probes, several times
// maxIntervals reservations (so the merge path runs) and a Reset
// midway. Every result, the interval list and the stats must agree.
func TestServerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for seq := 0; seq < 300; seq++ {
		var s Server
		var ref refServer
		zeroPct := []int{0, 0, 3, 30}[seq%4]
		maxDur := 1 + rng.Intn(60)
		ops := 200 + rng.Intn(8*maxIntervals)
		resetAt := rng.Intn(ops)
		var frontier Ticks
		for op := 0; op < ops; op++ {
			if op == resetAt {
				s.Reset()
				ref = refServer{}
			}
			frontier += Ticks(rng.Intn(20))
			t0 := frontier + Ticks(rng.Intn(200))
			if back := Ticks(rng.Intn(400)); rng.Intn(3) == 0 && back < t0 {
				t0 -= back // out-of-order arrival
			}
			if rng.Intn(5) == 0 {
				if got, want := s.Peek(t0), ref.Peek(t0); got != want {
					t.Fatalf("seq %d op %d: Peek(%d) = %d, reference %d", seq, op, t0, got, want)
				}
				continue
			}
			dur := Ticks(1 + rng.Intn(maxDur))
			if rng.Intn(100) < zeroPct {
				dur = 0
			}
			gs, gd := s.Acquire(t0, dur)
			ws, wd := ref.Acquire(t0, dur)
			if gs != ws || gd != wd {
				t.Fatalf("seq %d op %d: Acquire(%d, %d) = (%d, %d), reference (%d, %d)",
					seq, op, t0, dur, gs, gd, ws, wd)
			}
			if !equalIntervals(s.busy, ref.busy) {
				t.Fatalf("seq %d op %d: intervals %v, reference %v", seq, op, s.busy, ref.busy)
			}
		}
		if got, want := s.Stats(), ref.Stats(); got != want {
			t.Fatalf("seq %d: stats %+v, reference %+v", seq, got, want)
		}
	}
}

func equalIntervals(a, b []interval) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestServerAcquireZeroAllocs pins the warmed reservation path at zero
// allocations: the interval list slides through a buffer allocated
// once, including across the copy back to the buffer's start.
func TestServerAcquireZeroAllocs(t *testing.T) {
	var s Server
	var now Ticks
	for i := 0; i < 2*bufIntervals; i++ {
		now += 7
		s.Acquire(now, 10)
	}
	avg := testing.AllocsPerRun(1000, func() {
		now += 7
		s.Acquire(now, 10)
		s.Acquire(now-40, 3) // backfill behind the frontier
	})
	if avg != 0 {
		t.Fatalf("warmed Server.Acquire allocates %.1f allocs/run, want 0", avg)
	}
	s.Reset()
	if avg := testing.AllocsPerRun(100, func() { now += 7; s.Acquire(now, 10) }); avg != 0 {
		t.Fatalf("Server.Acquire after Reset allocates %.1f allocs/run, want 0", avg)
	}
}

// BenchmarkServerAcquire measures a warmed server near saturation:
// requests arrive about as fast as they are served, every fourth one
// behind the frontier, so most reservations queue and the interval list
// stays full (every reservation merges the two oldest intervals).
func BenchmarkServerAcquire(b *testing.B) {
	var s Server
	var now Ticks
	acquire := func(i int) {
		now += 11
		if i%4 == 3 {
			s.Acquire(now-30, 10)
		} else {
			s.Acquire(now, 10)
		}
	}
	for i := 0; i < 2*bufIntervals; i++ {
		acquire(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acquire(i)
	}
}
