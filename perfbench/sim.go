package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"sos/internal/lab"
	"sos/internal/metrics"
)

// simSpecPath is the shipped 1,000-node interest-routing experiment, read
// from the checkout root exactly as `soslab -spec ... -mode sim` reads it.
const simSpecPath = "examples/sim-1k/interest-1k.json"

// simSeeds is how many distinct scenario seeds one run simulates. A fixed
// count keeps the pooled delivery figures a pure function of --seed.
const simSeeds = 12

// simRun is one lab.Run of the spec at one scenario seed, reduced to the
// figures the benchmark reports so the report itself can be freed.
type simRun struct {
	seed       int64
	wall       time.Duration
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	err        error

	posts          int
	deliveries     []delivery
	disseminations uint64
	ratios         []float64
	wireBytes      uint64
	handshakes     uint64
	frames         uint64
}

// simSeed derives the i-th scenario seed of a benchmark seed.
func simSeed(seed int64, i int) int64 {
	return seed*1_000_003 + int64(i)
}

// loadSpec reads the shipped spec and sets its scenario seed.
func loadSpec(seed int64) (*lab.Spec, error) {
	spec, err := lab.LoadSpec(simSpecPath)
	if err != nil {
		return nil, err
	}
	spec.Seed = seed
	return spec, nil
}

// runSimOnce runs the spec at one seed through lab.Run in sim mode. A
// panic inside the engine is caught and reported as the run's error.
func runSimOnce(seed int64, tr *tracer) (r simRun) {
	r.seed = seed
	spec, err := loadSpec(seed)
	if err != nil {
		r.err = err
		return r
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	t0 := time.Now()
	var rep *lab.Report
	tr.bench(0, "lab.run", 0, func() {
		defer func() {
			if p := recover(); p != nil {
				r.err = fmt.Errorf("sim panicked: %v", p)
			}
		}()
		rep, r.err = lab.Run(spec, lab.Options{Mode: lab.ModeSim})
	})
	r.wall = time.Since(t0)
	r.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&after)
	r.mallocs = after.Mallocs - before.Mallocs
	r.allocBytes = after.TotalAlloc - before.TotalAlloc
	if r.err != nil {
		return r
	}
	r.posts = rep.PostsExecuted
	r.deliveries = deliveryList(rep)
	r.disseminations = rep.Disseminations
	r.ratios = rep.Ratio.Ratios
	for _, n := range rep.Nodes {
		if n.Stats != nil {
			r.wireBytes += n.Stats.Message.SummaryBytesSent + n.Stats.Message.PayloadBytesSent
			r.handshakes += n.Stats.Adhoc.HandshakesOK
			r.frames += n.Stats.Adhoc.FramesSent
		}
	}
	return r
}

// delayTolerance is how far a delivery's delay may differ between two runs
// at one seed. Signatures are randomized, so their encodings, and with
// them frame sizes and the medium's modelled transfer times, vary by a few
// bytes and microseconds between runs. Which messages reach whom, and
// when to the millisecond, does not.
const delayTolerance = time.Millisecond

// delivery is one report delivery in canonical form.
type delivery struct {
	key   string // message ref and recipient
	hops  uint16
	delay time.Duration
}

// deliveryList returns the report's deliveries sorted by key.
func deliveryList(rep *lab.Report) []delivery {
	ds := rep.Collector().Deliveries(metrics.AllHops)
	out := make([]delivery, 0, len(ds))
	for _, d := range ds {
		out = append(out, delivery{key: fmt.Sprintf("%v>%v", d.Ref, d.To), hops: d.Hops, delay: d.Delay()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// runDiff is how two runs at one seed differ within the check's limits.
type runDiff struct {
	worst    time.Duration // largest delay difference
	hopFlips int           // deliveries that arrived over another number of hops
}

// compareRuns checks that two runs at one seed agree: the same
// disseminations and the same deliveries, each with its delay within
// delayTolerance. A delivery whose hop count differs is counted, not
// failed: when two relay paths arrive within microseconds of each other,
// the size jitter above decides which one counts.
func compareRuns(a, b *simRun) (runDiff, error) {
	var d runDiff
	if len(a.deliveries) != len(b.deliveries) || a.disseminations != b.disseminations {
		return d, fmt.Errorf("deliveries %d vs %d, disseminations %d vs %d",
			len(a.deliveries), len(b.deliveries), a.disseminations, b.disseminations)
	}
	for i, da := range a.deliveries {
		db := b.deliveries[i]
		if da.key != db.key {
			return d, fmt.Errorf("delivery %s vs %s", da.key, db.key)
		}
		d.worst = max(d.worst, da.delay-db.delay, db.delay-da.delay)
		if da.hops != db.hops {
			d.hopFlips++
		}
	}
	if d.worst > delayTolerance {
		return d, fmt.Errorf("delays differ by up to %s", d.worst)
	}
	return d, nil
}

// simResult is one sim workload run: simSeeds distinct seeds, then repeats
// of them until the measured time is used up, each repeat checked against
// the first run of its seed.
type simResult struct {
	setups   []float64 // spec load seconds
	runs     []simRun
	distinct []simRun
	failures []string
	jitter   time.Duration // largest delay difference between runs at one seed
	hopFlips int           // deliveries whose hop count differed between runs at one seed
}

func runSimWorkload(seed int64, seconds float64, tr *tracer) *simResult {
	res := &simResult{}
	// Set-up is what precedes the engine: reading and validating the
	// spec. It is timed several times and reported as a median.
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		if _, err := loadSpec(seed); err != nil {
			res.failures = append(res.failures, err.Error())
			return res
		}
		res.setups = append(res.setups, time.Since(t0).Seconds())
	}
	var spent time.Duration
	for i := 0; i <= simSeeds || spent.Seconds() < seconds; i++ {
		r := runSimOnce(simSeed(seed, i%simSeeds), tr)
		spent += r.wall
		res.runs = append(res.runs, r)
		switch {
		case r.err != nil:
			res.failures = append(res.failures, fmt.Sprintf("seed %d: %v", r.seed, r.err))
		case i < simSeeds:
			res.distinct = append(res.distinct, r)
		default:
			first := res.runs[i%simSeeds]
			if first.err != nil {
				break
			}
			diff, err := compareRuns(&first, &r)
			res.jitter = max(res.jitter, diff.worst)
			res.hopFlips += diff.hopFlips
			if err != nil {
				res.failures = append(res.failures, fmt.Sprintf("seed %d: report differs between runs: %v", r.seed, err))
			}
		}
	}
	return res
}

// delaysMs pools the delivery delays of the distinct-seed runs, in
// milliseconds of virtual time, sorted.
func (s *simResult) delaysMs() []float64 {
	var out []float64
	for _, r := range s.distinct {
		for _, d := range r.deliveries {
			out = append(out, float64(d.delay)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

// metrics computes the end-to-end metrics. Rates and costs are per
// simulated post, as medians over runs; delivery and wire figures pool the
// distinct seeds.
func (s *simResult) metrics() metricSet {
	var rate, cpuMsg, allocs, allocB []float64
	var cpu, wall time.Duration
	for _, r := range s.runs {
		if r.err != nil {
			continue
		}
		posts := float64(max(r.posts, 1))
		rate = append(rate, posts/r.wall.Seconds())
		cpuMsg = append(cpuMsg, float64(r.cpu)/1e6/posts)
		allocs = append(allocs, float64(r.mallocs)/posts)
		allocB = append(allocB, float64(r.allocBytes)/posts)
		cpu += r.cpu
		wall += r.wall
	}
	var ratios []float64
	var wireBytes, posts int
	for _, r := range s.distinct {
		wireBytes += int(r.wireBytes)
		posts += r.posts
		ratios = append(ratios, r.ratios...)
	}
	delays := s.delaysMs()
	return metricSet{
		"setup_s":             median(s.setups),
		"msgs_per_s":          median(rate),
		"delivery_p50_ms":     quantile(delays, 0.50),
		"delivery_p99_ms":     quantile(delays, 0.99),
		"delivery_ratio":      mean(ratios),
		"cpu_ms_per_msg":      median(cpuMsg),
		"cpu_cores_busy":      cpu.Seconds() / math.Max(wall.Seconds(), 1e-9),
		"allocs_per_msg":      median(allocs),
		"alloc_bytes_per_msg": median(allocB),
		"wire_bytes_per_msg":  float64(wireBytes) / float64(max(posts, 1)),
		"rss_peak_mb":         rssPeakMB(),
		"ok_ratio":            max(0, 1-float64(len(s.failures))/float64(max(len(s.runs), 1))),
	}
}

// layerMetrics returns the sim layer's figures, per distinct-seed run.
func (s *simResult) layerMetrics() metricSet {
	var engine []float64
	for _, r := range s.runs {
		if r.err == nil {
			engine = append(engine, r.wall.Seconds())
		}
	}
	var handshakes, frames, dissem, deliveries float64
	for _, r := range s.distinct {
		handshakes += float64(r.handshakes)
		frames += float64(r.frames)
		dissem += float64(r.disseminations)
		deliveries += float64(len(r.deliveries))
	}
	k := float64(max(len(s.distinct), 1))
	return metricSet{
		"sim.engine_s":        median(engine),
		"sim.handshakes":      handshakes / k,
		"sim.frames_sent":     frames / k,
		"sim.disseminations":  dissem / k,
		"sim.deliveries":      deliveries / k,
		"sim.delay_jitter_us": float64(s.jitter) / 1e3,
		"sim.hop_flips":       float64(s.hopFlips),
	}
}
