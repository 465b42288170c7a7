// Command perfbench is the repository benchmark. It runs one workload
// against the unmodified middleware, checks the outputs, and prints every
// metric with its unit; the last line of standard output is one JSON
// object with the keys correct, attempted, failed and metrics.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload contact-burst-1k --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 30
//
// Workloads (see NOTES.md for why each was chosen):
//
//	contact-burst-1k    two nodes over loopback NetMedium, 1,000-author
//	                    history, one closed-loop poster, 1,000 posts per episode
//	contact-paced-100k  the same pair with a 100,000-author history, both
//	                    nodes posting 20 posts/s on an open loop for five
//	                    3 s resync periods per episode
//	sim-interest-1k     examples/sim-1k/interest-1k.json through lab.Run in
//	                    sim mode, at 12 scenario seeds derived from --seed
//
// --trace 0 reports the end-to-end metrics of untraced runs. --trace 1
// spends half the time untraced and half with timing wrappers around the
// store and medium each node is given, prints the per-layer metrics, the
// tracing overhead and a self-time table, and writes the spans as Chrome
// trace_event JSON under .bench_build/perfbench/.
//
// The process exits 1 when any output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricSet maps metric names to values.
type metricSet map[string]float64

// endToEnd lists the bounded end-to-end metrics with their units, in
// print order. They are machine-independent counts and ratios, plus the
// set-up time every benchmark reports.
var endToEnd = [][2]string{
	{"setup_s", "s"},
	{"delivery_ratio", "ratio"},
	{"allocs_per_msg", "count"},
	{"alloc_bytes_per_msg", "B"},
	{"wire_bytes_per_msg", "B"},
	{"rss_peak_mb", "MB"},
	{"ok_ratio", "ratio"},
}

// timings are the end-to-end figures that depend on how much CPU the host
// grants: every run prints them, and a traced run reports them as the
// per-layer bench.* metrics, but they are not bounded. On a shared virtual
// machine their run-to-run spread follows the CPU time the host steals
// (see NOTES.md).
var timings = [][2]string{
	{"msgs_per_s", "1/s"},
	{"delivery_p50_ms", "ms"},
	{"delivery_p99_ms", "ms"},
	{"cpu_ms_per_msg", "ms"},
	{"cpu_cores_busy", "cores"},
}

// perLayer lists the per-layer metrics with their units, by layer. A
// workload reports 0 for a layer it does not run through (store, mpc,
// core, message, adhoc, secure and netmedium on the sim workload; sim on
// the contact workloads).
var perLayer = [][2]string{
	{"store.put.calls_per_msg", "count"},
	{"store.put.us", "us"},
	{"store.missing.calls_per_msg", "count"},
	{"store.missing.us", "us"},
	{"store.missing.empty_ratio", "ratio"},
	{"store.changes.us", "us"},
	{"store.select.us", "us"},
	{"store.summary_stripe.calls", "count"},
	{"mpc.beacon.sets_per_msg", "count"},
	{"mpc.beacon.bytes", "B"},
	{"mpc.peer_found.us", "us"},
	{"mpc.received.us", "us"},
	{"mpc.send.frames_per_msg", "count"},
	{"mpc.send.bytes_per_msg", "B"},
	{"mpc.connects", "count"},
	{"core.post.p50_us", "us"},
	{"core.post.p99_us", "us"},
	{"bench.generator_late_max_ms", "ms"},
	{"bench.msgs_per_s", "1/s"},
	{"bench.delivery_p50_ms", "ms"},
	{"bench.delivery_p99_ms", "ms"},
	{"bench.cpu_ms_per_msg", "ms"},
	{"bench.cpu_cores_busy", "cores"},
	{"message.plan_entries_scanned_per_msg", "count"},
	{"message.ads_delta_per_msg", "count"},
	{"message.ads_full", "count"},
	{"message.summary_pulls", "count"},
	{"message.requests_per_msg", "count"},
	{"message.batches_per_msg", "count"},
	{"message.inflight_expired", "count"},
	{"message.reconnects", "count"},
	{"adhoc.frames_sent_per_msg", "count"},
	{"adhoc.handshakes_ok", "count"},
	{"adhoc.handshake_failures", "count"},
	{"adhoc.decryption_failures", "count"},
	{"secure.seals_per_msg", "count"},
	{"secure.opens_per_msg", "count"},
	{"secure.open_failures", "count"},
	{"secure.rotations", "count"},
	{"netmedium.frames_sent_per_msg", "count"},
	{"netmedium.frame_bytes_per_msg", "B"},
	{"netmedium.beacons_sent_per_s", "1/s"},
	{"netmedium.dial_retries", "count"},
	{"sim.engine_s", "s"},
	{"sim.handshakes", "count"},
	{"sim.frames_sent", "count"},
	{"sim.disseminations", "count"},
	{"sim.deliveries", "count"},
	{"sim.delay_jitter_us", "us"},
	{"sim.hop_flips", "count"},
}

var contactWorkloads = map[string]contactWorkload{
	"contact-burst-1k":   {authors: 1_000, posts: 1_000},
	"contact-paced-100k": {authors: 100_000, rate: 20, periods: 5, stagger: time.Second},
}

const simWorkload = "sim-interest-1k"

// outDir holds the span dumps, inside the checkout's build directory.
var outDir = filepath.Join(".bench_build", "perfbench")

// result is the benchmark's last output line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workload := flag.String("workload", "", "contact-burst-1k, contact-paced-100k, sim-interest-1k, or all")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 30, "measured seconds per workload")
	trace := flag.Int("trace", 0, "1 adds the traced run and reports per-layer metrics")
	flag.Parse()

	names := []string{*workload}
	if *workload == "all" {
		names = []string{"contact-burst-1k", "contact-paced-100k", simWorkload}
	}
	ok := true
	for _, name := range names {
		res, err := runWorkload(name, *seed, *seconds, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// runWorkload runs one workload and prints its human-readable report.
func runWorkload(name string, seed int64, seconds float64, traced bool) (*result, error) {
	fmt.Printf("workload %s seed %d seconds %g trace %t\n", name, seed, seconds, traced)
	steal0 := readSteal()
	defer func() {
		fmt.Printf("host CPU time stolen from this machine during the run: %.1f%%\n", 100*stealShare(steal0, readSteal()))
	}()
	var tr *tracer
	var e2e, layer, overheadTraced metricSet
	var failures []string
	attempted := 0
	if name == simWorkload {
		if traced {
			tr = newTracer("sim")
			tr.enabled.Store(true)
		}
		res := runSimWorkload(seed, seconds, tr)
		e2e, layer = res.metrics(), res.layerMetrics()
		failures = res.failures
		attempted = len(res.runs)
		fmt.Printf("sim runs %d (%d distinct seeds), sim_speedup %.0f virtual s per wall s\n",
			len(res.runs), len(res.distinct), 3*3600/math.Max(layer["sim.engine_s"], 1e-9))
		fmt.Printf("repeated seeds: largest delay difference %s, deliveries over another hop count %d\n",
			res.jitter, res.hopFlips)
	} else {
		w, known := contactWorkloads[name]
		if !known {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		if traced {
			tr = newTracer("alice", "bob")
		}
		run, err := runContact(seed, w, seconds, tr)
		if err != nil {
			return nil, err
		}
		e2e = contactMetrics(run.untraced, run.setups)
		delivered := 0
		for _, ep := range append(run.untraced, run.traced...) {
			failures = append(failures, ep.failures...)
			attempted += ep.attempted
			delivered += ep.delivered
		}
		if traced {
			var setups []float64
			for _, ep := range run.traced {
				setups = append(setups, ep.setup.Seconds())
			}
			overheadTraced = contactMetrics(run.traced, setups)
			layer = contactLayerMetrics(run.traced, tr)
		}
		fmt.Printf("episodes untraced %d traced %d, set-ups %d, posts %d, deliveries %d\n",
			len(run.untraced), len(run.traced), len(run.setups), attempted, delivered)
	}
	for i, f := range failures {
		if i == 20 {
			fmt.Printf("CHECK FAILED: ... and %d more\n", len(failures)-i)
			break
		}
		fmt.Printf("CHECK FAILED: %s\n", f)
	}

	res := &result{Attempted: max(attempted, 1), Failed: len(failures), Metrics: map[string]metricJSON{}}
	fmt.Printf("end-to-end metrics (untraced)\n")
	for _, m := range endToEnd {
		fmt.Printf("  %-22s %16.4f %s\n", m[0], e2e[m[0]], m[1])
	}
	fmt.Printf("end-to-end timings (untraced; not bounded)\n")
	for _, m := range timings {
		fmt.Printf("  %-22s %16.4f %s\n", m[0], e2e[m[0]], m[1])
		if layer != nil {
			layer["bench."+m[0]] = e2e[m[0]]
		}
	}
	if traced {
		if overheadTraced != nil {
			fmt.Printf("tracing overhead (traced run vs untraced median)\n")
			for _, m := range append(endToEnd, timings...) {
				u, t := e2e[m[0]], overheadTraced[m[0]]
				fmt.Printf("  %-22s untraced %14.4f traced %14.4f %+8.1f%%\n", m[0], u, t, 100*(t/u-1))
			}
		} else {
			fmt.Printf("tracing overhead: none (this workload has no wrappers; spans time lab.Run only)\n")
		}
		fmt.Printf("per-layer metrics (traced run)\n")
		for _, m := range perLayer {
			fmt.Printf("  %-38s %16.4f %s\n", m[0], layer[m[0]], m[1])
			res.Metrics[m[0]] = metricJSON{Value: layer[m[0]], Unit: m[1]}
		}
		if v := tr.selfTable(os.Stdout, name); v > 0 {
			res.Failed++
			fmt.Printf("CHECK FAILED: %d spans' children cover more time than the span\n", v)
		}
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d.trace.json", name, seed))
		if err := tr.writeChrome(path); err != nil {
			return nil, err
		}
		fmt.Printf("spans written to %s\n", path)
	} else {
		for _, m := range endToEnd {
			res.Metrics[m[0]] = metricJSON{Value: e2e[m[0]], Unit: m[1]}
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// contactLayerMetrics computes the per-layer metrics of the traced
// episodes. Names ending in _per_msg or _per_s are window deltas over
// delivered posts or window seconds; other counts are whole-episode totals
// of both nodes (set-up included), averaged over episodes.
func contactLayerMetrics(eps []*episode, tr *tracer) metricSet {
	var msgs, secs, k float64
	var postUs []float64
	var late float64
	d := map[string]float64{}
	for _, e := range eps {
		msgs += float64(e.delivered)
		secs += e.window.Seconds()
		k++
		postUs = append(postUs, e.postUs...)
		late = math.Max(late, float64(e.lateMax)/1e6)
		for i := 0; i < 2; i++ {
			mb, ma := e.coreBefore[i].Message, e.coreAfter[i].Message
			ab, aa := e.coreBefore[i].Adhoc, e.coreAfter[i].Adhoc
			sb, sa := e.secBefore[i], e.secAfter[i]
			nb, na := e.netBefore[i], e.netAfter[i]
			d["plan"] += float64(ma.PlanEntriesScanned - mb.PlanEntriesScanned)
			d["adsDelta"] += float64(ma.AdsDeltaSent - mb.AdsDeltaSent)
			d["requests"] += float64(ma.RequestsSent - mb.RequestsSent)
			d["batches"] += float64(ma.BatchesSent - mb.BatchesSent)
			d["adhocFrames"] += float64(aa.FramesSent - ab.FramesSent)
			d["seals"] += float64(sa.Seals - sb.Seals)
			d["opens"] += float64(sa.Opens - sb.Opens)
			d["netFrames"] += float64(na.FramesSent - nb.FramesSent)
			d["netBytes"] += float64(na.FrameBytesSent - nb.FrameBytesSent)
			d["beacons"] += float64(na.BeaconsSent - nb.BeaconsSent)
			d["adsFull"] += float64(ma.AdsFullSent)
			d["pulls"] += float64(ma.SummaryPullsSent)
			d["expired"] += float64(ma.InflightExpired)
			d["reconnects"] += float64(ma.Reconnects)
			d["hsOK"] += float64(aa.HandshakesOK)
			d["hsFail"] += float64(aa.HandshakeFailures)
			d["decFail"] += float64(aa.DecryptionFailures)
			d["openFail"] += float64(sa.OpenFailures)
			d["rotations"] += float64(sa.Rotations)
		}
		// One Medium per node; dial retries are per instance.
		d["dialRetries"] += float64(e.netAfter[0].DialRetries + e.netAfter[1].DialRetries)
	}
	msgs, secs, k = math.Max(msgs, 1), math.Max(secs, 1e-9), math.Max(k, 1)
	perCall := func(name string, self bool) float64 {
		a := tr.sum(name)
		if a.count == 0 {
			return 0
		}
		ns := a.totalNs
		if self {
			ns = a.selfNs
		}
		return float64(ns) / float64(a.count) / 1e3
	}
	put, missing := tr.sum("store.put"), tr.sum("store.missing")
	beacon, send := tr.sum("mpc.beacon"), tr.sum("mpc.send")
	sort.Float64s(postUs)
	return metricSet{
		"store.put.calls_per_msg":              float64(put.count) / msgs,
		"store.put.us":                         perCall("store.put", false),
		"store.missing.calls_per_msg":          float64(missing.count) / msgs,
		"store.missing.us":                     perCall("store.missing", false),
		"store.missing.empty_ratio":            float64(missing.flagged) / math.Max(float64(missing.count), 1),
		"store.changes.us":                     perCall("store.changes", false),
		"store.select.us":                      perCall("store.select", false),
		"store.summary_stripe.calls":           float64(tr.sum("store.summary_stripe").count),
		"mpc.beacon.sets_per_msg":              float64(beacon.count) / msgs,
		"mpc.beacon.bytes":                     float64(beacon.bytes) / math.Max(float64(beacon.count), 1),
		"mpc.peer_found.us":                    perCall("mpc.peer_found", false),
		"mpc.received.us":                      perCall("mpc.received", true),
		"mpc.send.frames_per_msg":              float64(send.count) / msgs,
		"mpc.send.bytes_per_msg":               float64(send.bytes) / msgs,
		"mpc.connects":                         float64(tr.sum("mpc.connect").count),
		"core.post.p50_us":                     quantile(postUs, 0.50),
		"core.post.p99_us":                     quantile(postUs, 0.99),
		"bench.generator_late_max_ms":          late,
		"message.plan_entries_scanned_per_msg": d["plan"] / msgs,
		"message.ads_delta_per_msg":            d["adsDelta"] / msgs,
		"message.ads_full":                     d["adsFull"] / k,
		"message.summary_pulls":                d["pulls"] / k,
		"message.requests_per_msg":             d["requests"] / msgs,
		"message.batches_per_msg":              d["batches"] / msgs,
		"message.inflight_expired":             d["expired"] / k,
		"message.reconnects":                   d["reconnects"] / k,
		"adhoc.frames_sent_per_msg":            d["adhocFrames"] / msgs,
		"adhoc.handshakes_ok":                  d["hsOK"] / k,
		"adhoc.handshake_failures":             d["hsFail"] / k,
		"adhoc.decryption_failures":            d["decFail"] / k,
		"secure.seals_per_msg":                 d["seals"] / msgs,
		"secure.opens_per_msg":                 d["opens"] / msgs,
		"secure.open_failures":                 d["openFail"] / k,
		"secure.rotations":                     d["rotations"] / k,
		"netmedium.frames_sent_per_msg":        d["netFrames"] / msgs,
		"netmedium.frame_bytes_per_msg":        d["netBytes"] / msgs,
		"netmedium.beacons_sent_per_s":         d["beacons"] / secs,
		"netmedium.dial_retries":               d["dialRetries"] / k,
	}
}

// median returns the middle of xs (the mean of the middle two for an even
// count), or 0 for none.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile returns the q-quantile of sorted xs by linear interpolation
// between closest ranks, or 0 for none.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// cpuTicks is the steal and total columns of /proc/stat's cpu line.
type cpuTicks struct{ steal, total uint64 }

// readSteal reads the machine's CPU time counters; on a virtual machine,
// steal is time the host ran something else while this machine wanted the
// CPU. Wall-clock metrics of a run with much steal are suspect.
func readSteal() cpuTicks {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	var t cpuTicks
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

func stealShare(a, b cpuTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}
