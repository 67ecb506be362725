package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"flashsim/internal/cache"
	"flashsim/internal/emitter"
	"flashsim/internal/machine"
	"flashsim/internal/obs"
	"flashsim/internal/proto"
	"flashsim/internal/serve"
	"flashsim/internal/sim"
	"flashsim/internal/workload"
)

const (
	// setups is how many times a run repeats its set-up; setup_s is
	// the median.
	setups = 3
	// minRuns is the fewest measured operations a run makes, however
	// short -seconds is.
	minRuns = 3
)

// simWorkload is a single-simulation workload: one registry program on
// one configuration, run back to back on the default serial engine.
type simWorkload struct {
	name  string
	app   string
	quick bool // registry quick defaults instead of full defaults
	spec  serve.ConfigSpec
}

var (
	gups32 = simWorkload{name: "gups32", app: "gups", quick: true,
		spec: serve.ConfigSpec{Base: "simos-mipsy", MHz: 150, Procs: 32}}
	fft1HW = simWorkload{name: "fft1-hw", app: "fft",
		spec: serve.ConfigSpec{Base: "hw", Procs: 1}}
)

// prepare resolves the workload through the registries: the machine
// configuration (seeded with the benchmark seed), the program, and the
// parameter values that name it in a flashd job spec.
func (w simWorkload) prepare(seed uint64) (machine.Config, emitter.Program, serve.RunRequest, error) {
	def, err := workload.Lookup(w.app)
	if err != nil {
		return machine.Config{}, emitter.Program{}, serve.RunRequest{}, err
	}
	vals, err := def.Resolve(nil, w.quick)
	if err != nil {
		return machine.Config{}, emitter.Program{}, serve.RunRequest{}, err
	}
	spec := w.spec
	spec.Seed = seed
	cfg, err := spec.Config()
	if err != nil {
		return machine.Config{}, emitter.Program{}, serve.RunRequest{}, err
	}
	req := serve.RunRequest{ConfigSpec: spec, Workload: serve.Workload(w.app, vals)}
	return cfg, def.Build(vals, spec.Procs), req, nil
}

// digest fingerprints everything a simulated run reports that a host-side
// change must not move: times, instruction count, cache statistics,
// protocol-case counts and the observability counters.
func digest(r machine.Result) string {
	h := sha256.New()
	err := json.NewEncoder(h).Encode(struct {
		Exec, Total  sim.Ticks
		Instructions uint64
		L1, L2       cache.Stats
		CaseCounts   [proto.NumCases]uint64
		Metrics      obs.RunMetrics
	}{r.Exec, r.Total, r.Instructions, r.L1, r.L2, r.CaseCounts, r.Metrics})
	if err != nil {
		panic(fmt.Sprintf("perfbench: digest encoding: %v", err))
	}
	return hex.EncodeToString(h.Sum(nil))[:20]
}

//go:embed pins.json
var pinsJSON []byte

// pins maps workload → seed → the digest that seed must produce.
var pins = func() map[string]map[string]string {
	var p map[string]map[string]string
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		panic(fmt.Sprintf("perfbench: pins.json: %v", err))
	}
	return p
}()

// run measures the workload. Set-up (registry resolve, program build,
// one unmeasured warm-up run) repeats setups times; the warm-up digest
// is the reference every measured run must reproduce.
func (w simWorkload) run(b *bench) error {
	var setupS []float64
	var cfg machine.Config
	var prog emitter.Program
	var req serve.RunRequest
	ref := ""
	for i := 0; i < setups; i++ {
		c0 := cpuSeconds()
		var err error
		cfg, prog, req, err = w.prepare(b.seed)
		if err != nil {
			return err
		}
		res, err := machine.Run(cfg, prog)
		if err != nil {
			return fmt.Errorf("warm-up run: %w", err)
		}
		setupS = append(setupS, cpuSeconds()-c0)
		d := digest(res)
		if ref == "" {
			ref = d
			fmt.Printf("%s seed %d: %s, digest %s\n", w.name, b.seed, res, d)
		}
		b.check(d == ref, fmt.Sprintf("warm-up %d digest %s != %s", i, d, ref))
	}
	if pin, ok := pins[w.name][strconv.FormatUint(b.seed, 10)]; ok {
		b.check(ref == pin, fmt.Sprintf("seed %d digest %s != pinned %s", b.seed, ref, pin))
	}
	b.set("setup_s", median(setupS))

	if b.trace {
		return w.traced(b, cfg, prog, req, ref)
	}
	var walls, cpus, allocs []float64
	deadline := time.Now().Add(b.seconds)
	for n := 0; n < minRuns || time.Now().Before(deadline); n++ {
		r0 := readRuntime()
		c0 := cpuSeconds()
		t0 := time.Now()
		res, err := machine.Run(cfg, prog)
		walls = append(walls, time.Since(t0).Seconds())
		cpus = append(cpus, cpuSeconds()-c0)
		allocs = append(allocs, readRuntime().sub(r0).allocBytes/1e6)
		b.check(err == nil && digest(res) == ref, fmt.Sprintf("run %d: err %v", n, err))
	}
	fmt.Printf("per-run wall s %.3f\nper-run cpu s  %.3f\n", walls, cpus)
	b.set("cpu_s", median(cpus))
	b.set("alloc_mb", median(allocs))
	return nil
}

// traced alternates untraced and traced runs of the same program for
// the measured time: every run must reproduce the reference digest, the
// traced runs give the layer split, and the two walls give the tracing
// overhead. It then serves the workload's job through an in-process
// flashd to price the memo and serving layers for this result.
func (w simWorkload) traced(b *bench, cfg machine.Config, prog emitter.Program, req serve.RunRequest, ref string) error {
	var st simTrace
	deadline := time.Now().Add(b.seconds)
	for n := 0; n < minRuns || time.Now().Before(deadline); n++ {
		st.pair(b, cfg, prog, ref, n)
	}
	st.report(b)
	b.set("host.wall_s", median(st.plain))
	return serveProbe(b, req, ref)
}

// simTrace accumulates paired untraced/traced runs.
type simTrace struct {
	layers       simLayers
	plain, trace []float64
	runtime      []runtimeCounters
	counters     obs.RunMetrics
}

// pair runs prog once untraced and once traced (in alternating order),
// checking both against ref.
func (st *simTrace) pair(b *bench, cfg machine.Config, prog emitter.Program, ref string, n int) {
	for k := 0; k < 2; k++ {
		if (n+k)%2 == 0 {
			r0 := readRuntime()
			t0 := time.Now()
			res, err := machine.Run(cfg, prog)
			st.plain = append(st.plain, time.Since(t0).Seconds())
			st.runtime = append(st.runtime, readRuntime().sub(r0))
			b.check(err == nil && digest(res) == ref, fmt.Sprintf("untraced run %d: err %v", n, err))
			continue
		}
		d := newTracedDriver(machine.NewExecutionDriver(cfg, prog), b.seed+uint64(n))
		t0 := time.Now()
		res, err := machine.RunWith(cfg, d)
		wall := time.Since(t0).Seconds()
		st.trace = append(st.trace, wall)
		b.check(err == nil && digest(res) == ref, fmt.Sprintf("traced run %d: err %v", n, err))
		if err == nil {
			st.layers.fold(wall, d)
			st.counters.Merge(res.Metrics)
		}
	}
}

// report records the sim-layer metrics, each per simulated run.
func (st *simTrace) report(b *bench) {
	l, m := st.layers, st.counters
	runs := float64(l.Runs)
	if runs == 0 {
		runs = 1
	}
	per := func(x uint64) float64 { return float64(x) / runs }
	b.set("emitter.next_s", l.Next/runs)
	b.set("emitter.instrs", per(l.Instrs))
	b.set("cpu.self_s", l.CPUSelf/runs)
	b.set("cpu.deliver_s", l.Deliver/runs)
	b.set("cpu.runs", per(l.RunCalls))
	b.set("port.self_s", l.Port/runs)
	b.set("port.calls", per(l.PortCalls))
	b.set("port.deferred", per(l.Deferred))
	b.set("l1.miss_ratio", ratio(m.L1.Misses, m.L1.Hits+m.L1.Misses))
	b.set("l2.miss_ratio", ratio(m.L2.Misses, m.L2.Hits+m.L2.Misses))
	b.set("tlb.misses", per(m.TLB.Misses))
	b.set("barrier.s", l.Barrier/runs)
	b.set("barrier.ns_per_op", 1e9*l.Barrier/float64(max(l.Deferred, 1)))
	b.set("sim.events", per(m.Queue.Fired))
	b.set("dir.reads", per(m.Dir.Reads))
	b.set("dir.writes", per(m.Dir.Writes))
	b.set("dir.invalidations", per(m.Dir.Invalidations))
	b.set("net.messages", per(m.Net.Messages))
	b.set("net.hops", per(m.Net.Hops))
	b.set("trace.remainder_pct", 100*l.Remainder/max(l.Wall, 1e-9))
	b.set("trace.overhead_pct", 100*(median(st.trace)/median(st.plain)-1))
	b.setRuntime(st.runtime)
	if l.Wall > 0 {
		fmt.Printf("traced wall split: emitter %.1f%%  cpu %.1f%%  deliver %.1f%%  port %.1f%%  barrier %.1f%%  remainder %.1f%%\n",
			100*l.Next/l.Wall, 100*l.CPUSelf/l.Wall, 100*l.Deliver/l.Wall, 100*l.Port/l.Wall,
			100*l.Barrier/l.Wall, 100*l.Remainder/l.Wall)
	}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
