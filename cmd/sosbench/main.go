// Command sosbench runs parameter sweeps over the in-silico field study —
// routing scheme × population size × relay TTL, answering the paper's
// closing call for "further investigations at higher densities" — plus
// the live contact-throughput benchmark behind the committed perf
// baseline.
//
// Usage:
//
//	sosbench [-days 2] [-posts 80] [-seeds 3] [-sweep scheme|density|ttl|contact|simcontact] [-json]
//	         [-cpuprofile f] [-memprofile f] [-baseline BENCH_baseline.json] [-gate 0.20]
//
// -json emits the sweep as a machine-readable array instead of the
// table, so results are diffable and comparable across revisions.
//
// -sweep contact measures messages synced per contact-second between two
// live nodes at 1k/10k/100k/1M-author stores (see internal/lab.RunContact).
// With -baseline it compares the machine-independent metrics (allocs and
// bytes per synced message, split into summary- and payload-plane wire
// bytes) against the committed BENCH_baseline.json and exits nonzero when
// any regresses by more than -gate (default 20%) — the CI perf gate. The
// gate also enforces the cost curve's flatness within the run itself: the
// 100k-author tier must stay within 2× of the 1k tier on both allocs/msg
// and msgs/contact-sec. Wall-clock throughput is otherwise reported but
// never gated against the baseline: it measures the runner, not the code.
//
// -sweep simcontact measures the simulator's per-tick contact detection
// (the spatial grid index) at 100/1k/5k-node fleets. Its gated metrics
// are candidate-pair checks per tick — fully deterministic under the
// seeded fleet, so any regression is an algorithmic one — and steady-
// state allocations per tick.
//
// -cpuprofile/-memprofile write pprof profiles covering the sweep.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"sos/internal/lab"
	"sos/internal/metrics"
	"sos/internal/sim"
)

func main() {
	var (
		days       = flag.Int("days", 2, "study length per run")
		posts      = flag.Int("posts", 80, "posts per run")
		seeds      = flag.Int("seeds", 3, "seeds to average over")
		sweep      = flag.String("sweep", "scheme", "sweep dimension: scheme|density|ttl|contact|simcontact")
		jsonMode   = flag.Bool("json", false, "emit results as JSON instead of a table")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile covering the sweep")
		memProfile = flag.String("memprofile", "", "write a heap profile after the sweep")
		baseline   = flag.String("baseline", "", "contact sweep: compare against this BENCH_baseline.json")
		gate       = flag.Float64("gate", 0.20, "contact sweep: fail when allocs/bytes per message regress by more than this fraction")
	)
	flag.Parse()

	// No os.Exit before the profiles are flushed: a truncated CPU profile
	// on a failing run would lose the data exactly when a regression needs
	// diagnosing.
	var profileStop func()
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sosbench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "sosbench:", err)
			os.Exit(1)
		}
		profileStop = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}

	var err error
	switch *sweep {
	case "contact":
		err = runContact(*jsonMode, *baseline, *gate)
	case "simcontact":
		err = runSimContact(*jsonMode, *baseline, *gate)
	default:
		err = run(*days, *posts, *seeds, *sweep, *jsonMode)
	}

	if profileStop != nil {
		profileStop()
	}
	if *memProfile != "" {
		f, mpErr := os.Create(*memProfile)
		if mpErr == nil {
			runtime.GC()
			mpErr = pprof.WriteHeapProfile(f)
			f.Close()
		}
		if mpErr != nil {
			fmt.Fprintln(os.Stderr, "sosbench: memprofile:", mpErr)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sosbench:", err)
		os.Exit(1)
	}
}

// contactConfigs are the store shapes the contact benchmark sweeps; they
// must match the committed baseline's rows.
var contactConfigs = []lab.ContactConfig{
	{Authors: 1_000, Posts: 200},
	{Authors: 10_000, Posts: 200},
	{Authors: 100_000, Posts: 100},
	{Authors: 1_000_000, Posts: 50},
}

// runContact measures the contact sweep and optionally gates it against
// a committed baseline.
func runContact(jsonMode bool, baselinePath string, gate float64) error {
	if !jsonMode {
		fmt.Printf("sweep=contact gate=%.0f%% baseline=%s\n\n", 100*gate, baselinePath)
		fmt.Printf("%-16s %14s %14s %14s %14s %14s\n",
			"variant", "msgs/sec", "allocs/msg", "B/msg", "sumB/msg", "payB/msg")
	}
	results := make([]lab.ContactResult, 0, len(contactConfigs))
	for _, cfg := range contactConfigs {
		res, err := lab.RunContact(cfg)
		if err != nil {
			return fmt.Errorf("contact authors=%d: %w", cfg.Authors, err)
		}
		results = append(results, res)
		if !jsonMode {
			fmt.Printf("%-16s %14.1f %14.1f %14.1f %14.1f %14.1f\n",
				fmt.Sprintf("authors=%d", res.Authors), res.MsgsPerSec, res.AllocsPerMsg,
				res.BytesPerMsg, res.SummaryBytesPerMsg, res.PayloadBytesPerMsg)
		}
	}
	if jsonMode {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			return err
		}
	}
	if baselinePath == "" {
		return nil
	}
	base, err := loadBaseline(baselinePath)
	if err != nil {
		return err
	}
	return gateContact(baselinePath, base.Contact, gate, results)
}

// baselineFile is the committed perf trajectory, one section per gated
// sweep.
type baselineFile struct {
	Contact     []lab.ContactResult `json:"contact"`
	SimContacts []simContactResult  `json:"simContacts"`
}

// loadBaseline reads BENCH_baseline.json.
func loadBaseline(path string) (*baselineFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading baseline: %w", err)
	}
	var bf baselineFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	return &bf, nil
}

// gateContact fails when a machine-independent contact-sweep metric
// regresses past the allowed fraction relative to the committed baseline.
func gateContact(path string, base []lab.ContactResult, gate float64, results []lab.ContactResult) error {
	byAuthors := make(map[int]lab.ContactResult, len(base))
	for _, b := range base {
		byAuthors[b.Authors] = b
	}
	// Any divergence between the sweep shapes and the baseline rows is a
	// hard failure: a silently skipped row would turn the gate vacuous.
	var failures []string
	if len(base) != len(results) {
		failures = append(failures, fmt.Sprintf(
			"baseline has %d rows, sweep measured %d — re-run `sosbench -sweep contact -json` and commit the new %s",
			len(base), len(results), path))
	}
	for _, res := range results {
		b, ok := byAuthors[res.Authors]
		if !ok {
			failures = append(failures, fmt.Sprintf(
				"no baseline row for authors=%d — commit an updated %s", res.Authors, path))
			continue
		}
		check := func(metric string, got, want float64) {
			if want <= 0 {
				return
			}
			if ratio := got / want; ratio > 1+gate {
				failures = append(failures, fmt.Sprintf(
					"authors=%d %s: %.1f vs baseline %.1f (+%.0f%%, gate %.0f%%)",
					res.Authors, metric, got, want, 100*(ratio-1), 100*gate))
			}
		}
		check("allocs/msg", res.AllocsPerMsg, b.AllocsPerMsg)
		check("bytes/msg", res.BytesPerMsg, b.BytesPerMsg)
		// The wire-byte planes gate independently: a baseline predating
		// the split has them at zero and check() skips them.
		check("summary-bytes/msg", res.SummaryBytesPerMsg, b.SummaryBytesPerMsg)
		check("payload-bytes/msg", res.PayloadBytesPerMsg, b.PayloadBytesPerMsg)
	}
	// Flatness of the cost curve, gated within the run itself so it holds
	// on any machine: growing the store 100× (1k → 100k authors) must not
	// double the per-message sync cost or halve the contact throughput.
	byAuthorsRes := make(map[int]lab.ContactResult, len(results))
	for _, r := range results {
		byAuthorsRes[r.Authors] = r
	}
	if small, ok := byAuthorsRes[1_000]; ok {
		if big, ok := byAuthorsRes[100_000]; ok {
			if small.AllocsPerMsg > 0 && big.AllocsPerMsg > 2*small.AllocsPerMsg {
				failures = append(failures, fmt.Sprintf(
					"flatness: allocs/msg grew %.1fx from 1k to 100k authors (%.1f → %.1f), allowed 2x",
					big.AllocsPerMsg/small.AllocsPerMsg, small.AllocsPerMsg, big.AllocsPerMsg))
			}
			if small.MsgsPerSec > 0 && big.MsgsPerSec < small.MsgsPerSec/2 {
				failures = append(failures, fmt.Sprintf(
					"flatness: msgs/contact-sec fell %.1fx from 1k to 100k authors (%.1f → %.1f), allowed 2x",
					small.MsgsPerSec/big.MsgsPerSec, small.MsgsPerSec, big.MsgsPerSec))
			}
		}
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "sosbench: REGRESSION:", f)
		}
		return fmt.Errorf("%d perf regression(s) past the %.0f%% gate", len(failures), 100*gate)
	}
	fmt.Fprintf(os.Stderr, "sosbench: perf gate passed (%d configurations within %.0f%% of baseline)\n",
		len(results), 100*gate)
	return nil
}

// simContactResult is one fleet size's contact-detection measurements.
// ChecksPerTick is exactly reproducible (the fleet is seeded), and
// AllocsPerTick is steady-state heap activity — both machine-independent
// and therefore gated. NsPerTick measures the runner and is
// informational only.
type simContactResult struct {
	Nodes         int     `json:"nodes"`
	Ticks         int     `json:"ticks"`
	ChecksPerTick float64 `json:"checksPerTick"`
	PairsPerTick  float64 `json:"pairsPerTick"`
	CellsPerTick  float64 `json:"cellsPerTick"`
	AllocsPerTick float64 `json:"allocsPerTick"`
	NsPerTick     float64 `json:"nsPerTick"`
}

// simContactNodes are the fleet sizes the sweep measures; they must
// match the committed baseline's rows (and BenchmarkSimContacts).
var simContactNodes = []int{100, 1_000, 5_000}

// measureSimContact runs the grid sweep over one seeded fleet.
func measureSimContact(nodes int) simContactResult {
	const samples = 32
	const rounds = 2
	fleet := sim.ContactBenchFleet(nodes, samples, 1)
	ix := sim.NewContactIndex(fleet.RangeM)
	// Warm-up rotation: the index sizes its storage, so the measured
	// rounds see the steady state the simulator runs in.
	for t := 0; t < samples; t++ {
		ix.Sweep(fleet.Positions[t], fleet.Active[t], func(_, _ int32) {})
	}
	res := simContactResult{Nodes: nodes, Ticks: samples * rounds}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	startT := time.Now()
	checks, pairs, cells := 0, 0, 0
	for i := 0; i < res.Ticks; i++ {
		t := i % samples
		ix.Sweep(fleet.Positions[t], fleet.Active[t], func(_, _ int32) {})
		st := ix.Stats()
		checks += st.Checks
		pairs += st.Pairs
		cells += st.OccupiedCells
	}
	elapsed := time.Since(startT)
	runtime.ReadMemStats(&after)
	n := float64(res.Ticks)
	res.ChecksPerTick = float64(checks) / n
	res.PairsPerTick = float64(pairs) / n
	res.CellsPerTick = float64(cells) / n
	res.AllocsPerTick = float64(after.Mallocs-before.Mallocs) / n
	res.NsPerTick = float64(elapsed.Nanoseconds()) / n
	return res
}

// runSimContact measures the simulator's contact-detection sweep and
// optionally gates it against the committed baseline.
func runSimContact(jsonMode bool, baselinePath string, gate float64) error {
	if !jsonMode {
		fmt.Printf("sweep=simcontact gate=%.0f%% baseline=%s\n\n", 100*gate, baselinePath)
		fmt.Printf("%-16s %14s %14s %14s %14s %14s\n",
			"variant", "checks/tick", "pairs/tick", "cells/tick", "allocs/tick", "ns/tick")
	}
	results := make([]simContactResult, 0, len(simContactNodes))
	for _, nodes := range simContactNodes {
		res := measureSimContact(nodes)
		results = append(results, res)
		if !jsonMode {
			fmt.Printf("%-16s %14.1f %14.1f %14.1f %14.2f %14.0f\n",
				fmt.Sprintf("nodes=%d", res.Nodes), res.ChecksPerTick, res.PairsPerTick,
				res.CellsPerTick, res.AllocsPerTick, res.NsPerTick)
		}
	}
	if jsonMode {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			return err
		}
	}
	if baselinePath == "" {
		return nil
	}
	base, err := loadBaseline(baselinePath)
	if err != nil {
		return err
	}
	return gateSimContact(baselinePath, base.SimContacts, gate, results)
}

// gateSimContact fails when the grid's work per tick regresses past the
// gate. AllocsPerTick gets a small absolute floor on top of the
// fractional gate: near-zero baselines would otherwise turn GC noise
// into CI failures.
func gateSimContact(path string, base []simContactResult, gate float64, results []simContactResult) error {
	byNodes := make(map[int]simContactResult, len(base))
	for _, b := range base {
		byNodes[b.Nodes] = b
	}
	var failures []string
	if len(base) != len(results) {
		failures = append(failures, fmt.Sprintf(
			"baseline has %d simContacts rows, sweep measured %d — re-run `sosbench -sweep simcontact -json` and update %s",
			len(base), len(results), path))
	}
	for _, res := range results {
		b, ok := byNodes[res.Nodes]
		if !ok {
			failures = append(failures, fmt.Sprintf(
				"no baseline row for nodes=%d — update %s", res.Nodes, path))
			continue
		}
		if b.ChecksPerTick > 0 && res.ChecksPerTick > b.ChecksPerTick*(1+gate) {
			failures = append(failures, fmt.Sprintf(
				"nodes=%d checks/tick: %.1f vs baseline %.1f (+%.0f%%, gate %.0f%%)",
				res.Nodes, res.ChecksPerTick, b.ChecksPerTick,
				100*(res.ChecksPerTick/b.ChecksPerTick-1), 100*gate))
		}
		if allowed := b.AllocsPerTick*(1+gate) + 16; res.AllocsPerTick > allowed {
			failures = append(failures, fmt.Sprintf(
				"nodes=%d allocs/tick: %.2f vs baseline %.2f (allowed %.2f)",
				res.Nodes, res.AllocsPerTick, b.AllocsPerTick, allowed))
		}
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "sosbench: REGRESSION:", f)
		}
		return fmt.Errorf("%d sim-contact regression(s) past the %.0f%% gate", len(failures), 100*gate)
	}
	fmt.Fprintf(os.Stderr, "sosbench: sim-contact gate passed (%d fleet sizes within %.0f%% of baseline)\n",
		len(results), 100*gate)
	return nil
}

// result aggregates the metrics of one configuration over seeds.
type result struct {
	deliveries float64
	oneHop     float64
	frames     float64
	kib        float64
	delay24    float64
}

// row is one configuration's averaged results in the JSON output.
type row struct {
	Variant    string  `json:"variant"`
	Sweep      string  `json:"sweep"`
	Days       int     `json:"days"`
	Posts      int     `json:"posts"`
	Seeds      int     `json:"seeds"`
	Deliveries float64 `json:"deliveries"`
	OneHop     float64 `json:"oneHopShare"`
	Frames     float64 `json:"frames"`
	KiB        float64 `json:"kib"`
	Delay24h   float64 `json:"cdfAt24h"`
}

func run(days, posts, seeds int, sweep string, jsonMode bool) error {
	type variant struct {
		label string
		cfg   sim.GainesvilleConfig
	}
	var variants []variant
	base := sim.GainesvilleConfig{Days: days, Posts: posts, InAppFollows: 20}

	switch sweep {
	case "scheme":
		for _, s := range []string{"epidemic", "interest", "spray-and-wait", "prophet"} {
			cfg := base
			cfg.Scheme = s
			variants = append(variants, variant{label: s, cfg: cfg})
		}
	case "density":
		for _, users := range []int{10, 15, 20, 30} {
			cfg := base
			cfg.Users = users
			variants = append(variants, variant{label: fmt.Sprintf("users=%d", users), cfg: cfg})
		}
	case "ttl":
		for _, ttl := range []time.Duration{6 * time.Hour, 12 * time.Hour, 24 * time.Hour, 48 * time.Hour, -1} {
			cfg := base
			cfg.RelayTTL = ttl
			label := "unlimited"
			if ttl > 0 {
				label = ttl.String()
			}
			variants = append(variants, variant{label: "ttl=" + label, cfg: cfg})
		}
	default:
		return fmt.Errorf("unknown sweep %q", sweep)
	}

	if !jsonMode {
		fmt.Printf("sweep=%s days=%d posts=%d seeds=%d\n\n", sweep, days, posts, seeds)
		fmt.Printf("%-16s %11s %11s %11s %11s %11s\n",
			"variant", "deliveries", "1hop-share", "frames", "KiB", "cdf@24h")
	}
	rows := make([]row, 0, len(variants))
	for _, v := range variants {
		agg, err := average(v.cfg, seeds)
		if err != nil {
			return fmt.Errorf("%s: %w", v.label, err)
		}
		r := row{
			Variant: v.label, Sweep: sweep, Days: days, Posts: posts, Seeds: seeds,
			Deliveries: agg.deliveries, OneHop: agg.oneHop,
			Frames: agg.frames, KiB: agg.kib, Delay24h: agg.delay24,
		}
		rows = append(rows, r)
		if !jsonMode {
			// Rows stream as each variant finishes, so a long sweep
			// shows progress and can be aborted early.
			fmt.Printf("%-16s %11.1f %11.2f %11.1f %11.1f %11.2f\n",
				r.Variant, r.Deliveries, r.OneHop, r.Frames, r.KiB, r.Delay24h)
		}
	}
	if jsonMode {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rows)
	}
	return nil
}

// average runs a configuration across seeds and averages the metrics.
func average(cfg sim.GainesvilleConfig, seeds int) (result, error) {
	var agg result
	for seed := 1; seed <= seeds; seed++ {
		cfg.Seed = int64(seed * 1000003)
		scenario, err := sim.NewGainesville(cfg)
		if err != nil {
			return agg, err
		}
		s, err := sim.New(scenario.Config)
		if err != nil {
			return agg, err
		}
		res, err := s.Run()
		if err != nil {
			return agg, err
		}
		agg.deliveries += float64(len(res.Collector.Deliveries(metrics.AllHops)))
		agg.oneHop += res.Collector.OneHopShare()
		agg.frames += float64(res.MediumStats.FramesDelivered)
		agg.kib += float64(res.MediumStats.BytesDelivered) / 1024
		agg.delay24 += res.Collector.DelayCDF(metrics.AllHops).At(24)
	}
	n := float64(seeds)
	agg.deliveries /= n
	agg.oneHop /= n
	agg.frames /= n
	agg.kib /= n
	agg.delay24 /= n
	return agg, nil
}
