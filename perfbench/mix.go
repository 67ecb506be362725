package main

import (
	"fmt"
	"math/rand"
	"time"

	"flashsim/internal/machine"
	"flashsim/internal/serve"
	"flashsim/internal/workload"
)

// Shape of the flashd-mix job list.
const (
	mixMaxProcs  = 8
	mixResubs    = 10 // resubmissions of completed jobs per fresh job
	mixRecompute = 8  // fresh jobs re-simulated in-process by the traced run
)

var (
	mixApps  = []string{"fft", "lu", "radix", "ocean", "oltp", "gups", "barnes"}
	mixBases = []string{"simos-mipsy", "simos-mxs"}
)

// mixPlan is one seed's job list: reqs[:hot] is the hot set, pre-warmed
// into the memo store during set-up; reqs[hot:] are the fresh jobs; ops
// is the measured submission order — each fresh job followed by
// mixResubs resubmissions drawn from the hot set and the fresh jobs
// submitted before it.
type mixPlan struct {
	reqs []serve.RunRequest
	hot  int
	ops  []int
}

// newMixPlan draws the job list from seed alone. Every job is a
// registry program at quick defaults, with a distinct configuration
// seed so no two jobs share a memo fingerprint. The fresh jobs cover
// every (workload, SimOS-Mipsy or SimOS-MXS, 1–8 processors)
// combination once, in seed-shuffled order, so the simulation work of
// a pass hardly depends on the seed; the hot set is one small job per
// workload.
func newMixPlan(seed uint64) (mixPlan, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	var p mixPlan
	add := func(app, base string, procs int) error {
		def, err := workload.Lookup(app)
		if err != nil {
			return err
		}
		vals, err := def.Resolve(nil, true)
		if err != nil {
			return err
		}
		p.reqs = append(p.reqs, serve.RunRequest{
			ConfigSpec: serve.ConfigSpec{Base: base, Procs: procs, Seed: seed<<20 + uint64(len(p.reqs)) + 1},
			Workload:   serve.Workload(app, vals),
		})
		return nil
	}
	for _, app := range mixApps {
		if err := add(app, mixBases[rng.Intn(len(mixBases))], 1+rng.Intn(2)); err != nil {
			return mixPlan{}, err
		}
	}
	p.hot = len(p.reqs)
	type combo struct {
		app, base string
		procs     int
	}
	var fresh []combo
	for _, app := range mixApps {
		for _, base := range mixBases {
			for procs := 1; procs <= mixMaxProcs; procs++ {
				fresh = append(fresh, combo{app, base, procs})
			}
		}
	}
	rng.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
	for _, c := range fresh {
		if err := add(c.app, c.base, c.procs); err != nil {
			return mixPlan{}, err
		}
	}
	for f := p.hot; f < len(p.reqs); f++ {
		p.ops = append(p.ops, f)
		for r := 0; r < mixResubs; r++ {
			p.ops = append(p.ops, rng.Intn(f))
		}
	}
	return p, nil
}

// runMix measures flashd-mix. Each pass boots a fresh replica,
// pre-warms the hot set (set-up), then submits the whole op list from
// two closed-loop clients (the measured phase); passes repeat until the
// measured time is used. cpu_s is the median CPU time of a pass, alloc_mb
// the median heap allocation per submitted job.
func runMix(b *bench) error {
	plan, err := newMixPlan(b.seed)
	if err != nil {
		return err
	}
	hot := make([]int, plan.hot)
	for i := range hot {
		hot[i] = i
	}
	var setupS, walls, cpus, allocs []float64
	var tr *serveTrace
	var measured []op
	refs := map[int]string{}
	deadline := time.Now().Add(b.seconds)
	for pass := 0; pass < minRuns || time.Now().Before(deadline); pass++ {
		if b.trace {
			tr = newServeTrace()
		}
		c0 := cpuSeconds()
		s, err := startServer(b.workdir, tr)
		if err != nil {
			return err
		}
		warm := s.submit(plan.reqs, hot, 0)
		setupS = append(setupS, cpuSeconds()-c0)
		checkOps(b, warm, refs)

		r0 := readRuntime()
		c1 := cpuSeconds()
		t1 := time.Now()
		ops := s.submit(plan.reqs, plan.ops, len(hot))
		walls = append(walls, time.Since(t1).Seconds())
		cpus = append(cpus, cpuSeconds()-c1)
		allocs = append(allocs, readRuntime().sub(r0).allocBytes/1e6/float64(len(ops)))
		if err := s.close(); err != nil {
			return err
		}
		checkOps(b, ops, refs)
		if b.trace {
			// One traced pass gives the serving split; the rest of the
			// time goes to the recompute below.
			measured = ops
			break
		}
	}
	fmt.Printf("per-pass wall s %.3f\nper-pass cpu s  %.3f\n", walls, cpus)
	b.set("setup_s", median(setupS))
	b.set("cpu_s", median(cpus))
	b.set("alloc_mb", median(allocs))
	b.set("host.wall_s", median(walls))
	if !b.trace {
		return nil
	}
	if err := tr.report(b, measured); err != nil {
		return err
	}
	return recompute(b, plan, refs)
}

// recompute re-simulates the first mixRecompute fresh jobs in-process,
// untraced and traced in turn: each must reproduce the digest the
// replica served (memo hit ≡ recompute), and the traced runs give the
// sim-layer split of the mix's jobs. The runs repeat until the measured
// time is used.
func recompute(b *bench, plan mixPlan, refs map[int]string) error {
	type job struct {
		cfg  machine.Config
		req  serve.RunRequest
		want string
	}
	var jobs []job
	for i := plan.hot; i < plan.hot+mixRecompute; i++ {
		cfg, err := plan.reqs[i].ConfigSpec.Config()
		if err != nil {
			return err
		}
		jobs = append(jobs, job{cfg, plan.reqs[i], refs[i]})
	}
	var st simTrace
	deadline := time.Now().Add(b.seconds)
	for n := 0; n < len(jobs) || time.Now().Before(deadline); n++ {
		j := jobs[n%len(jobs)]
		prog, err := j.req.Workload.Program(j.cfg.Procs)
		if err != nil {
			return fmt.Errorf("job %s: %w", j.req.Workload.Name, err)
		}
		st.pair(b, j.cfg, prog, j.want, n)
	}
	st.report(b)
	return nil
}
