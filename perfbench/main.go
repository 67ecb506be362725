// Command perfbench is the repository benchmark: it runs one workload
// for a fixed time, checks every operation's output, and prints the
// metrics BENCHMARK.json declares. With -trace 0 it reports the
// end-to-end metrics; with -trace 1 it runs the same workload with
// wrappers around each layer's public entry points and reports the
// per-layer split instead.
//
//	bash perfbench/run.sh --workload gups32 --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {"wall_s": {"value": 1.41, "unit": "s"}, ...}}
//
// Any error that prevents a result exits non-zero without that line.
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// metricDef declares one reported metric. The catalogue below is the
// single source of names and units; BENCHMARK.json must list the same
// end-to-end and per-layer sets (TestCatalogueMatchesBenchmarkJSON).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Traced bool // reported by -trace 1 (per-layer) rather than -trace 0
}

var catalogue = []metricDef{
	{"setup_s", "s", "lower", false},
	{"cpu_s", "s", "lower", false},
	{"alloc_mb", "MB", "lower", false},
	{"max_rss_mb", "MB", "lower", false},

	{"emitter.next_s", "s", "lower", true},
	{"emitter.instrs", "count", "lower", true},
	{"cpu.self_s", "s", "lower", true},
	{"cpu.deliver_s", "s", "lower", true},
	{"cpu.runs", "count", "lower", true},
	{"port.self_s", "s", "lower", true},
	{"port.calls", "count", "lower", true},
	{"port.deferred", "count", "lower", true},
	{"l1.miss_ratio", "ratio", "lower", true},
	{"l2.miss_ratio", "ratio", "lower", true},
	{"tlb.misses", "count", "lower", true},
	{"barrier.s", "s", "lower", true},
	{"barrier.ns_per_op", "ns", "lower", true},
	{"sim.events", "count", "lower", true},
	{"dir.reads", "count", "lower", true},
	{"dir.writes", "count", "lower", true},
	{"dir.invalidations", "count", "lower", true},
	{"net.messages", "count", "lower", true},
	{"net.hops", "count", "lower", true},
	{"go.mallocs_k", "k", "lower", true},
	{"go.gc_cycles", "count", "lower", true},
	{"go.gc_cpu_s", "s", "lower", true},
	{"runner.get_s", "s", "lower", true},
	{"runner.gets", "count", "lower", true},
	{"runner.put_s", "s", "lower", true},
	{"runner.puts", "count", "lower", true},
	{"runner.hit_ratio", "ratio", "higher", true},
	{"serve.handler_p50_ms", "ms", "lower", true},
	{"serve.hit_handler_p99_ms", "ms", "lower", true},
	{"client.overhead_p50_ms", "ms", "lower", true},
	{"client.hit_p50_ms", "ms", "lower", true},
	{"client.hit_p99_ms", "ms", "lower", true},
	{"client.run_p50_ms", "ms", "lower", true},
	{"trace.overhead_pct", "%", "lower", true},
	{"trace.remainder_pct", "%", "lower", true},
	{"host.probe_s", "s", "lower", true},
	{"host.wall_s", "s", "lower", true},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*bench) error{
	"gups32":     gups32.run,
	"fft1-hw":    fft1HW.run,
	"flashd-mix": runMix,
}

// bench is one benchmark invocation: its settings, the operation
// tally, and the metrics recorded so far.
type bench struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	workdir string

	attempted, failed int
	values            map[string]float64
}

// check counts one operation and whether its output was correct.
func (b *bench) check(ok bool, what string) {
	b.attempted++
	if !ok {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: %s\n", what)
	}
}

func (b *bench) set(name string, v float64) { b.values[name] = v }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload: gups32, fft1-hw or flashd-mix")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 20, "measured seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		workdir = flag.String("workdir", ".bench_build", "scratch directory for memo stores")
	)
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown -workload %q (want gups32, fft1-hw or flashd-mix)", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("want -seconds >= 1 and -trace 0 or 1")
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return err
	}
	b := &bench{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		workdir: *workdir,
		values:  map[string]float64{},
	}

	probeBefore := hostProbe()
	if err := fn(b); err != nil {
		return fmt.Errorf("%s: %w", *name, err)
	}
	probeAfter := hostProbe()
	b.set("max_rss_mb", maxRSSMB())
	b.set("host.probe_s", (probeBefore+probeAfter)/2)

	var load syscall.Sysinfo_t
	_ = syscall.Sysinfo(&load) // load average is diagnostic only
	fmt.Printf("host: cpus=%d gomaxprocs=%d go=%s load=%.2f,%.2f,%.2f probe_before_s=%.4f probe_after_s=%.4f\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(),
		float64(load.Loads[0])/65536, float64(load.Loads[1])/65536, float64(load.Loads[2])/65536,
		probeBefore, probeAfter)

	res := result{Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricValue{}}
	res.Correct = b.failed == 0 && b.attempted > 0
	for _, m := range catalogue {
		if m.Traced != b.trace {
			continue
		}
		v, ok := b.values[m.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", *name, m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Printf("%-26s %14.6g %s\n", m.Name, v, m.Unit)
	}
	fmt.Printf("operations: %d attempted, %d failed\n", res.Attempted, res.Failed)
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// runtimeCounters reads the Go runtime's cumulative allocation and GC
// counters.
type runtimeCounters struct {
	allocBytes, mallocs, gcCycles, gcCPU float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readRuntime() runtimeCounters {
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	f := func(v metrics.Value) float64 {
		if v.Kind() == metrics.KindFloat64 {
			return v.Float64()
		}
		return float64(v.Uint64())
	}
	return runtimeCounters{f(s[0].Value), f(s[1].Value), f(s[2].Value), f(s[3].Value)}
}

func (c runtimeCounters) sub(o runtimeCounters) runtimeCounters {
	return runtimeCounters{c.allocBytes - o.allocBytes, c.mallocs - o.mallocs, c.gcCycles - o.gcCycles, c.gcCPU - o.gcCPU}
}

// setRuntime records the go.* per-layer metrics as medians of per-run
// deltas.
func (b *bench) setRuntime(deltas []runtimeCounters) {
	var mallocs, cycles, cpu []float64
	for _, d := range deltas {
		mallocs = append(mallocs, d.mallocs/1e3)
		cycles = append(cycles, d.gcCycles)
		cpu = append(cpu, d.gcCPU)
	}
	b.set("go.mallocs_k", median(mallocs))
	b.set("go.gc_cycles", median(cycles))
	b.set("go.gc_cpu_s", median(cpu))
}

// cpuSeconds is the process's user plus system CPU time: every
// thread's, so emitter goroutines, the garbage collector and (for
// flashd-mix) the in-process server are all counted.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// hostProbe times a fixed, seeded pure-Go kernel (fill, sort and fold
// 256 Ki words, twice over) and returns the fastest of three
// timings. It does not depend on the repository's code, so a change in
// it between runs is the host, not the commit.
func hostProbe() float64 {
	best := 0.0
	buf := make([]uint64, 1<<18)
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		var sink uint64
		for rep := 0; rep < 2; rep++ {
			x := uint64(0x2545F4914F6CDD1D) + uint64(rep)
			for i := range buf {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				buf[i] = x
			}
			sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
			for _, v := range buf {
				sink = sink*31 + v
			}
		}
		if d := time.Since(t0).Seconds(); best == 0 || d < best {
			best = d
		}
		probeSink = sink
	}
	return best
}

var probeSink uint64
