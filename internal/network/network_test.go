package network

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"flashsim/internal/sim"
)

func TestHopsIsHammingDistance(t *testing.T) {
	n := New(DefaultConfig(16))
	cases := []struct{ a, b, want int }{
		{0, 0, 0}, {0, 1, 1}, {0, 3, 2}, {0, 15, 4}, {5, 10, 4}, {8, 12, 1},
	}
	for _, c := range cases {
		if got := n.Hops(c.a, c.b); got != c.want {
			t.Errorf("hops(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestRouteIsECube(t *testing.T) {
	n := New(DefaultConfig(16))
	route := n.Route(0, 11) // 11 = 1011b: dims 0, 1, 3
	want := []int{1, 3, 11}
	if len(route) != len(want) {
		t.Fatalf("route %v", route)
	}
	for i := range want {
		if route[i] != want[i] {
			t.Fatalf("route %v, want %v", route, want)
		}
	}
	if n.Route(5, 5) != nil {
		t.Fatal("self route should be empty")
	}
}

// TestRouteProperty: every hop flips exactly one bit and the route ends
// at the destination.
func TestRouteProperty(t *testing.T) {
	n := New(DefaultConfig(16))
	f := func(a, b uint8) bool {
		src, dst := int(a%16), int(b%16)
		route := n.Route(src, dst)
		cur := src
		for _, next := range route {
			diff := cur ^ next
			if diff == 0 || diff&(diff-1) != 0 {
				return false
			}
			cur = next
		}
		return cur == dst && len(route) == n.Hops(src, dst)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyScalesWithHops(t *testing.T) {
	n := New(DefaultConfig(16))
	t1 := n.Send(0, 0, 1, 16)
	n2 := New(DefaultConfig(16))
	t2 := n2.Send(0, 0, 15, 16) // 4 hops
	if t2 <= t1 {
		t.Fatalf("4-hop (%d) should exceed 1-hop (%d)", t2, t1)
	}
}

func TestContentionSerializesLink(t *testing.T) {
	cfg := DefaultConfig(4)
	n := New(cfg)
	a1 := n.Send(0, 0, 1, 1024)
	a2 := n.Send(0, 0, 1, 1024) // same link, same instant
	if a2 <= a1 {
		t.Fatalf("second message not delayed: %d vs %d", a2, a1)
	}

	cfg.ModelContention = false
	m := New(cfg)
	b1 := m.Send(0, 0, 1, 1024)
	b2 := m.Send(0, 0, 1, 1024)
	if b1 != b2 {
		t.Fatalf("latency-only model must not contend: %d vs %d", b1, b2)
	}
}

func TestSelfSendIsFree(t *testing.T) {
	n := New(DefaultConfig(4))
	if got := n.Send(100, 2, 2, 1024); got != 100 {
		t.Fatalf("self send took %d", got-100)
	}
}

func TestStatsAccumulate(t *testing.T) {
	n := New(DefaultConfig(4))
	n.Send(0, 0, 3, 64)
	st := n.Stats()
	if st.Messages != 1 || st.Bytes != 64 || st.Hops != 2 {
		t.Fatalf("stats %+v", st)
	}
	if len(n.LinkStats()) == 0 {
		t.Fatal("no link stats")
	}
	n.Reset()
	if n.Stats().Messages != 0 {
		t.Fatal("reset")
	}
}

func TestNonPowerOfTwoRoundsUp(t *testing.T) {
	n := New(DefaultConfig(12)) // embeds in a 16-node cube
	if got := n.Hops(0, 11); got != 3 {
		t.Fatalf("hops in partial cube: %d", got)
	}
	// Routes between the 12 nodes may pass through the cube's absent
	// nodes 12-15; every one must find its links and routers.
	for src := 0; src < 12; src++ {
		for dst := 0; dst < 12; dst++ {
			n.Send(0, src, dst, 64)
		}
	}
	if got := n.Stats().Hops; got == 0 {
		t.Fatal("no hops in partial cube")
	}
}

// routeLinks returns the "a->b" keys of the links along Route(src, dst).
func routeLinks(n *Network, src, dst int) []string {
	var keys []string
	cur := src
	for _, next := range n.Route(src, dst) {
		keys = append(keys, fmt.Sprintf("%d->%d", cur, next))
		cur = next
	}
	sort.Strings(keys)
	return keys
}

func linkKeys(n *Network) []string {
	var keys []string
	for k := range n.LinkStats() {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestSendChargesRouteLinks: Route is the spec of e-cube order, and the
// links Send reserves are exactly the consecutive pairs of that route,
// once each. LinkStats lists those links and no others.
func TestSendChargesRouteLinks(t *testing.T) {
	for _, nodes := range []int{8, 16} {
		n := New(DefaultConfig(nodes))
		for src := 0; src < nodes; src++ {
			for dst := 0; dst < nodes; dst++ {
				n.Reset()
				n.Send(0, src, dst, 64)
				want := routeLinks(n, src, dst)
				got := linkKeys(n)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%d nodes, %d->%d: charged links %v, route links %v", nodes, src, dst, got, want)
				}
				for k, st := range n.LinkStats() {
					if st.Uses != 1 {
						t.Fatalf("%d nodes, %d->%d: link %s used %d times", nodes, src, dst, k, st.Uses)
					}
				}
			}
		}
	}
}

// refNetwork reserves one server per directed link along Route, the
// way Send is specified.
type refNetwork struct {
	n       *Network
	links   map[[2]int]*sim.Server
	routers []sim.Server
}

func (r *refNetwork) send(t sim.Ticks, src, dst, size int) sim.Ticks {
	cfg := r.n.Config()
	ser := sim.Ticks(uint64(size)*uint64(cfg.TicksPerKByte)/1024 + 1)
	now, cur := t, src
	for _, next := range r.n.Route(src, dst) {
		l := r.links[[2]int{cur, next}]
		if l == nil {
			l = &sim.Server{}
			r.links[[2]int{cur, next}] = l
		}
		_, done := l.Acquire(now, ser)
		_, now = r.routers[next].Acquire(done+cfg.HopTicks, cfg.RouterTicks)
		cur = next
	}
	return now
}

// TestSendMatchesRouteReference: under contention, random message
// sequences arrive exactly when a per-route reference says, including
// in a partial cube.
func TestSendMatchesRouteReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, nodes := range []int{8, 12, 16} {
		n := New(DefaultConfig(nodes))
		ref := &refNetwork{n: New(DefaultConfig(nodes)), links: map[[2]int]*sim.Server{}, routers: make([]sim.Server, 16)}
		var now sim.Ticks
		for i := 0; i < 2000; i++ {
			now += sim.Ticks(rng.Intn(40))
			src, dst, size := rng.Intn(nodes), rng.Intn(nodes), 16+rng.Intn(256)
			if got, want := n.Send(now, src, dst, size), ref.send(now, src, dst, size); got != want {
				t.Fatalf("%d nodes, message %d (%d->%d at %d): arrives %d, reference %d", nodes, i, src, dst, now, got, want)
			}
		}
		for k, st := range n.LinkStats() {
			var a, b int
			fmt.Sscanf(k, "%d->%d", &a, &b)
			if want := ref.links[[2]int{a, b}].Stats(); st != want {
				t.Fatalf("%d nodes, link %s: stats %+v, reference %+v", nodes, k, st, want)
			}
		}
		if len(n.LinkStats()) != len(ref.links) {
			t.Fatalf("%d nodes: %d links carried traffic, reference %d", nodes, len(n.LinkStats()), len(ref.links))
		}
	}
}

func TestLinkStatsAfterReset(t *testing.T) {
	n := New(DefaultConfig(8))
	n.Send(0, 0, 7, 64)
	if got := linkKeys(n); fmt.Sprint(got) != "[0->1 1->3 3->7]" {
		t.Fatalf("link keys %v", got)
	}
	n.Reset()
	if got := n.LinkStats(); len(got) != 0 {
		t.Fatalf("links listed after reset: %v", got)
	}
}

// sendAllPairs sends one message between every ordered pair, 20 ticks
// apart: with 144-byte messages each link is busy about a quarter of
// the time, so some messages queue.
func sendAllPairs(n *Network, now sim.Ticks, nodes int) sim.Ticks {
	for src := 0; src < nodes; src++ {
		for dst := 0; dst < nodes; dst++ {
			now += 20
			n.Send(now, src, dst, 144)
		}
	}
	return now
}

// TestSendZeroAllocs pins the contended Send path at zero allocations
// once every link has been used.
func TestSendZeroAllocs(t *testing.T) {
	const nodes = 32
	n := New(DefaultConfig(nodes))
	now := sendAllPairs(n, 0, nodes)
	avg := testing.AllocsPerRun(20, func() { now = sendAllPairs(n, now, nodes) })
	if avg != 0 {
		t.Fatalf("contended Send allocates %.1f allocs per %d messages, want 0", avg, nodes*nodes)
	}
}

// BenchmarkNetworkSend measures one contended message on a warmed
// 32-node hypercube, cycling through every src/dst pair.
func BenchmarkNetworkSend(b *testing.B) {
	const nodes = 32
	n := New(DefaultConfig(nodes))
	now := sendAllPairs(n, 0, nodes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 20
		n.Send(now, i%nodes, (i/nodes)%nodes, 144)
	}
}

func TestLatencyOnly(t *testing.T) {
	n := New(DefaultConfig(16))
	lat := n.LatencyOnly(0, 3, 144)
	if lat == 0 {
		t.Fatal("zero latency")
	}
	if n.LatencyOnly(0, 15, 144) <= lat {
		t.Fatal("latency must grow with distance")
	}
}

func TestSerializationTimeGrowsWithSize(t *testing.T) {
	mk := func() *Network { return New(DefaultConfig(4)) }
	small := mk().Send(0, 0, 1, 16)
	big := mk().Send(0, 0, 1, 4096)
	if big <= small {
		t.Fatalf("serialization: %d vs %d", big, small)
	}
}
