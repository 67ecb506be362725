package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"

	"flashsim/internal/core"
	"flashsim/internal/machine"
	"flashsim/internal/runner"
	"flashsim/internal/serve"
	"flashsim/internal/workload"
)

// The traced driver must not change what the machine computes: a
// wrapped and an unwrapped run of the same program give the same Result.
func TestTracedDriverIsTransparent(t *testing.T) {
	for _, cfg := range []machine.Config{core.SimOSMipsy(4, 150, true), core.SimOSMXS(4, true)} {
		def, err := workload.Lookup("gups")
		if err != nil {
			t.Fatal(err)
		}
		vals, err := def.Resolve(map[string]any{"log_table": 8, "updates": 256}, true)
		if err != nil {
			t.Fatal(err)
		}
		prog := def.Build(vals, 4)
		plain, err := machine.RunWith(cfg, machine.NewExecutionDriver(cfg, prog))
		if err != nil {
			t.Fatal(err)
		}
		d := newTracedDriver(machine.NewExecutionDriver(cfg, prog), 3)
		traced, err := machine.RunWith(cfg, d)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, traced) {
			t.Fatalf("%s: traced result differs from untraced:\n%v\n%v", cfg.Name, plain, traced)
		}
		var l simLayers
		l.fold(1, d)
		if l.Instrs < plain.Instructions || l.PortCalls == 0 || l.RunCalls == 0 || l.Deferred == 0 {
			t.Fatalf("%s: wrappers saw too little: %+v (instructions %d)", cfg.Name, l, plain.Instructions)
		}
	}
}

// The cheapest pinned point must reproduce: a simulator change that
// moves any digested statistic fails here before it fails a benchmark
// run, and must regenerate pins.json on purpose.
func TestPinnedDigestReproduces(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full fft1-hw reference point")
	}
	pin, ok := pins["fft1-hw"]["1"]
	if !ok {
		t.Fatal("pins.json has no fft1-hw seed 1")
	}
	cfg, prog, _, err := fft1HW.prepare(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := machine.Run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if d := digest(res); d != pin {
		t.Fatalf("fft1-hw seed 1 digest %s, pinned %s", d, pin)
	}
}

func TestSpanSamplesAtItsPeriod(t *testing.T) {
	s := newSpan(16, 99)
	const calls = 1 << 16
	for i := 0; i < calls; i++ {
		if s.sample() {
			s.timed++
		}
	}
	if got := float64(calls) / float64(s.timed); got < 15 || got > 17 {
		t.Fatalf("mean sampling period %.2f, want about 16", got)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true},
		{999, 0.99, 0, false},
		{100, 0.9, 90, true},
		{99, 0.9, 0, false},
		{1, 0.5, 1, true},
		{0, 0.5, 0, false},
	}
	for _, c := range cases {
		got, err := percentile(xs[:c.n], c.q)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("percentile(n=%d, q=%g) = %g, %v; want %g, ok=%v", c.n, c.q, got, err, c.want, c.ok)
		}
		if c.ok && c.q > 0.5 {
			beyond := 0
			for _, x := range xs[:c.n] {
				if x > got {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("p%g of %d samples has %d beyond it", 100*c.q, c.n, beyond)
			}
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

// The catalogue and BENCHMARK.json must agree on every metric's name,
// unit, direction and tier, and every name must be well formed.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var want []metricDef
	for _, m := range spec.EndToEnd {
		want = append(want, metricDef{m.Name, m.Unit, m.Better, false})
	}
	for _, m := range spec.PerLayer {
		want = append(want, metricDef{m.Name, m.Unit, m.Better, true})
	}
	if !reflect.DeepEqual(want, catalogue) {
		t.Fatalf("BENCHMARK.json metrics differ from the catalogue:\n%v\n%v", want, catalogue)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range catalogue {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("bad or repeated metric %q (unit %q)", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok || !name.MatchString(w.Name) {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
}

func TestMixPlanIsDeterministicPerSeed(t *testing.T) {
	a, err := newMixPlan(5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newMixPlan(5)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a.reqs)
	jb, _ := json.Marshal(b.reqs)
	if string(ja) != string(jb) || !reflect.DeepEqual(a.ops, b.ops) {
		t.Fatal("two plans from one seed differ")
	}
	c, err := newMixPlan(6)
	if err != nil {
		t.Fatal(err)
	}
	if jc, _ := json.Marshal(c.reqs); string(jc) == string(ja) {
		t.Fatal("plans from seeds 5 and 6 are identical")
	}
	fresh := len(mixApps) * len(mixBases) * mixMaxProcs
	if len(a.reqs) != a.hot+fresh || len(a.ops) != fresh*(1+mixResubs) {
		t.Fatalf("plan has %d jobs and %d ops", len(a.reqs), len(a.ops))
	}
	// Every job must be fresh (a distinct memo fingerprint), and every
	// resubmission must name a job submitted before it.
	fps := map[string]bool{}
	for _, r := range a.reqs {
		cfg, err := r.ConfigSpec.Config()
		if err != nil {
			t.Fatal(err)
		}
		prog, err := r.Workload.Program(cfg.Procs)
		if err != nil {
			t.Fatal(err)
		}
		fp := runner.Fingerprint(cfg, prog)
		if fps[fp] {
			t.Fatalf("two jobs share fingerprint %s", fp)
		}
		fps[fp] = true
	}
	seen := map[int]bool{}
	for i := 0; i < a.hot; i++ {
		seen[i] = true
	}
	for i, j := range a.ops {
		if i%(1+mixResubs) == 0 {
			if seen[j] {
				t.Fatalf("op %d: fresh job %d was already submitted", i, j)
			}
			seen[j] = true
		} else if !seen[j] {
			t.Fatalf("op %d resubmits job %d before its first submission", i, j)
		}
	}
}

// A served job and its memo hits must all match the in-process run, and
// closing the replica must stop everything it started.
func TestServeProbeMatchesInProcessRun(t *testing.T) {
	req := serve.RunRequest{
		ConfigSpec: serve.ConfigSpec{Base: "simos-mipsy", Procs: 2, Seed: 7},
		Workload:   serve.Workload("fft", map[string]any{"logn": 8}),
	}
	cfg, err := req.ConfigSpec.Config()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := req.Workload.Program(cfg.Procs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := machine.Run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{workdir: t.TempDir(), values: map[string]float64{}}
	if err := serveProbe(b, req, digest(res)); err != nil {
		t.Fatal(err)
	}
	if b.failed != 0 || b.attempted != probeHits+1 {
		t.Fatalf("%d of %d operations failed", b.failed, b.attempted)
	}
	if b.values["runner.puts"] != 1 || b.values["runner.hit_ratio"] <= 0.5 {
		t.Fatalf("unexpected memo activity: %v", b.values)
	}
	if entries, _ := os.ReadDir(b.workdir); len(entries) != 0 {
		t.Fatalf("store directory left behind: %v", entries)
	}
}
