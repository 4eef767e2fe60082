// Command perfbench is the repository's benchmark: it measures the
// Caladrius serving tier and the paper-figure reproduction end to end,
// and, in a separate traced run, layer by layer.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (every input is generated from --seed; the program under
// test only receives the generated requests):
//
//   - model-whatif: closed loop at nproc clients against the in-process
//     daemon; 55% performance with an explicit rate and parallelism
//     from a grid, 20% performance at the observed rate ({}), 20%
//     suggest at an explicit rate, 5% forced calibrate. Planner and
//     autoscaler traffic: api → sched → calibration cache → core →
//     audit/usage does the work, and the calibrate share exercises the
//     cache's miss and invalidate path next to its hit path.
//   - dashboard: closed loop at nproc clients; 60% query_range over a
//     self-monitoring history pre-filled to cover the query window, 20%
//     audit?limit=50, 10% usage, 10% performance ({}), while the
//     benchmark's scrape loop keeps appending. The read-side tenant.
//   - figures: passes over all 15 cmd/figures tables in a seeded order,
//     sweep parallelism nproc, each table checked byte for byte against
//     results/<table>.csv. The offline reproduction path.
//
// Every workload runs its generated sequence of operations in passes
// (a pass is the 1000-request sequence for a serving workload, the 15
// tables for figures). The host's steal time is read at every pass
// boundary, and the end-to-end metrics are taken over the run's quiet
// complete passes: every pass with under 2% steal, or, when the host
// was busier, the eighth of them with the least steal (see
// quietPasses):
//
//   - setup_s: median wall time of the run's three set-ups (daemon
//     assembly and simulated history, history and audit pre-fill,
//     connection and cache warm-up; for figures, loading the reference
//     tables and one cold table).
//   - throughput_rps: median over passes of the operations per second
//     that succeeded and passed validation (requests, or tables for
//     figures).
//   - latency_p50_ms, latency_p99_ms: client-observed quantiles, exact
//     over every operation of the kept passes (at least 10 beyond p99
//     for a serving workload; a figures run keeps 15 to 150 tables, so
//     its p99 is within a table or two of the slowest).
//   - sweep_s: median wall time of a pass.
//   - peak_rss_mb: the process's peak resident set at the end.
//
// Failures (transport errors, non-2xx answers, bodies that fail
// validation, tables not byte-identical to results/) are reported as
// "failed" out of "attempted" on the last line and as error_ratio in
// the report; "correct" is true only when none failed. The exit code
// is 0 whenever the result line was printed, and non-zero, with no
// result line, when the run could not be set up or measured (for
// example outside a repository checkout).
//
// With --trace 0 the last line of standard output is a JSON object
// whose metrics are the end-to-end metrics; with --trace 1 they are the
// per-layer metrics, taken from trace seams the benchmark installs
// around the program's public interfaces (an http.Handler wrapper, a
// metrics.Provider decorator, the caller-owned scrape loop, registry
// and scheduler reads, Go runtime statistics). A traced run alternates
// traced and untraced slices (passes, for figures) and reports the
// difference as trace.overhead_pct. Every line before the last is a
// human-readable report: each metric by name with its unit, the sample
// counts, the host's steal time, and a meta line with nproc,
// GOMAXPROCS, Go version, commit, seed and run length.
//
// Seeds 1 to 10 are the development seeds. Seed 4242 is held out: it
// was not used while the benchmark or any change measured with it was
// written, and is kept for checking a later claim once.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by the
// untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"sweep_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the traced run's metrics, named after the layer (the
// repository module) they measure. Metrics of a layer a workload does
// not exercise read 0.
//
//   - api.server_ms.<op>: mean time in the API handler per operation;
//     api.transport_ms: mean client latency minus mean handler time;
//     api.resp_bytes: mean response body size (traced slices).
//   - sched.*: scheduler and calibration-cache counters over the
//     measured window (runs, coalesced and shed shares of submissions,
//     mean queue wait, cache hit share and misses).
//   - core.model_run_ms: mean wall time per model run, from the usage
//     accountant's run counters.
//   - metrics.provider_calls_per_req, metrics.provider_ms: fetches per
//     request and mean time per fetch at the metrics.Provider seam.
//   - telemetry.scrape_ms, telemetry.scrape_samples: mean time and
//     samples per ScrapeOnce of the benchmark-owned scrape loop.
//   - tsdb.history_points_*, audit.records_*: state size at the start
//     and end of the measured window.
//   - runtime.*: process CPU time and allocation per operation, garbage
//     collections and their pauses over the measured window.
//   - experiments.<table>_ms: mean regeneration time per table;
//     runtime.alloc_mb_per_pass: allocation per figures pass.
//   - error_ratio: failed over attempted operations.
//   - trace.overhead_pct: throughput lost (serving) or pass time added
//     (figures) in traced slices, relative to untraced ones.
//   - host.steal_pct: share of the machine's CPU time the hypervisor
//     gave to other guests during the measured window.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, op := range opNames {
		defs = append(defs, metricDef{"api.server_ms." + op, "ms"})
	}
	defs = append(defs,
		metricDef{"api.transport_ms", "ms"},
		metricDef{"api.resp_bytes", "bytes"},
		metricDef{"sched.runs", "count"},
		metricDef{"sched.coalesced_ratio", "ratio"},
		metricDef{"sched.shed_ratio", "ratio"},
		metricDef{"sched.queue_wait_ms", "ms"},
		metricDef{"sched.calcache_hit_ratio", "ratio"},
		metricDef{"sched.calcache_misses", "count"},
		metricDef{"core.model_run_ms", "ms"},
		metricDef{"metrics.provider_calls_per_req", "count"},
		metricDef{"metrics.provider_ms", "ms"},
		metricDef{"telemetry.scrape_ms", "ms"},
		metricDef{"telemetry.scrape_samples", "count"},
		metricDef{"tsdb.history_points_start", "count"},
		metricDef{"tsdb.history_points_end", "count"},
		metricDef{"audit.records_start", "count"},
		metricDef{"audit.records_end", "count"},
		metricDef{"runtime.cpu_ms_per_req", "ms"},
		metricDef{"runtime.alloc_kb_per_req", "KiB"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.gc_pause_ms", "ms"},
	)
	for _, t := range figureTables {
		defs = append(defs, metricDef{"experiments." + t.name + "_ms", "ms"})
	}
	return append(defs,
		metricDef{"runtime.alloc_mb_per_pass", "MiB"},
		metricDef{"error_ratio", "ratio"},
		metricDef{"trace.overhead_pct", "%"},
		metricDef{"host.steal_pct", "%"},
	)
}()

// workloads are the benchmark's workloads, in BENCHMARK.json order.
var workloads = []string{"model-whatif", "dashboard", "figures"}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's metrics before they are printed.
type report struct {
	attempted, failed int
	e2e, layer        map[string]float64
	notes             []string // sample counts and first failures
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: model-whatif, dashboard or figures")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "measured run length in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	rep, err := measure(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, setupRounds)
	if err != nil {
		return err
	}
	return emit(stdout, rep, *workload, *seed, *seconds, *trace == 1)
}

// nproc is the client, connection and sweep-worker count.
func nproc() int { return runtime.NumCPU() }

// measure runs one workload, with rounds set-ups, and derives its
// metrics.
func measure(workload string, seed int64, dur time.Duration, traced bool, rounds int) (*report, error) {
	switch workload {
	case "model-whatif", "dashboard":
		reqs, err := generate(workload, seed)
		if err != nil {
			return nil, err
		}
		res, err := runServing(reqs, nproc(), dur, traced, rounds)
		if err != nil {
			return nil, err
		}
		return servingReport(res)
	case "figures":
		res, err := runFigures(seed, nproc(), dur, traced, rounds)
		if err != nil {
			return nil, err
		}
		return figuresReport(res)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
}

// emit prints the human-readable report, the meta line and the result.
func emit(w io.Writer, rep *report, workload string, seed int64, seconds int, traced bool) error {
	mode := "untraced"
	if traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "perfbench %s, %s run, seed %d, %ds\n", workload, mode, seed, seconds)
	for _, n := range rep.notes {
		fmt.Fprintln(w, "  "+n)
	}
	fmt.Fprintln(w, "end-to-end metrics:")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", m.name, rep.e2e[m.name], m.unit)
	}
	if traced {
		fmt.Fprintln(w, "per-layer metrics:")
		for _, m := range perLayer {
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", m.name, rep.layer[m.name], m.unit)
		}
	}
	fmt.Fprintf(w, "error_ratio %.6g (%d failed of %d attempted)\n",
		ratio(float64(rep.failed), float64(rep.attempted)), rep.failed, rep.attempted)

	meta, err := json.Marshal(map[string]any{"meta": map[string]any{
		"workload": workload, "seed": seed, "seconds": seconds, "trace": traced,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commit(), "clients": nproc(),
	}})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(meta))

	defs, values := endToEnd, rep.e2e
	if traced {
		defs, values = perLayer, rep.layer
	}
	out := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	for _, m := range defs {
		out.Metrics[m.name] = metricValue{Value: values[m.name], Unit: m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// commit is the VCS revision the binary was built from, when the build
// saw one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, modified := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				modified = "+modified"
			}
		}
	}
	return rev + modified
}

// passStats is one pass's share of the end-to-end metrics.
type passStats struct {
	seconds, rps float64
	lats         []float64 // validated operations' latencies, ms, sorted
	steal        float64   // host steal during the pass, percent
}

// summarisePass derives a pass's wall time, validated operations per
// second and sorted latencies from its operations' start offsets and
// latencies (failed operations count in the wall time only).
func summarisePass(starts, lats []time.Duration, ok []bool) passStats {
	first, last := starts[0], time.Duration(0)
	var good []float64
	for i := range starts {
		first = min(first, starts[i])
		last = max(last, starts[i]+lats[i])
		if ok[i] {
			good = append(good, float64(lats[i])/1e6)
		}
	}
	sort.Float64s(good)
	wall := (last - first).Seconds()
	return passStats{seconds: wall, rps: ratio(float64(len(good)), wall), lats: good}
}

// quietSteal is the host steal, in percent of machine CPU time, up to
// which a pass counts as quiet: the counters tick every 10ms, so a
// short pass's lower readings are a tick or so.
const quietSteal = 2.0

// minKept is the fewest passes of n the metrics are taken over: an
// eighth of them, so a run at the standard length keeps a few seconds
// of serving passes, or one figures pass.
func minKept(n int) int { return (n + 7) / 8 }

// quietPasses keeps the passes during which the hypervisor stole the
// least of the machine's CPU time: every pass at or under quietSteal,
// and when there are fewer than minKept of those, the minKept passes
// with the least steal. Steal is time the program wanted the CPU and
// did not get it; it stalls requests in flight, and on a shared host it
// comes in episodes of seconds to minutes, so a run's quiet passes
// measure the program and its stolen ones mostly the neighbours. Steal
// does not depend on the program, so a change to the program cannot
// move which passes are kept. Passes in which no operation passed
// validation have no latency and are left out. limit is the most steal
// a kept pass may have seen.
func quietPasses(passes []passStats) (kept []passStats, limit float64) {
	var steal []float64
	for _, p := range passes {
		if len(p.lats) > 0 {
			steal = append(steal, p.steal)
		}
	}
	if len(steal) == 0 {
		return nil, 0
	}
	sort.Float64s(steal)
	limit = max(steal[minKept(len(steal))-1], quietSteal)
	for _, p := range passes {
		if len(p.lats) > 0 && p.steal <= limit {
			kept = append(kept, p)
		}
	}
	return kept, limit
}

// passMedians sets the end-to-end metrics every workload derives from
// its passes, over the quiet passes only (see quietPasses): pass time
// and throughput are medians of the per-pass values, and the latency
// quantiles are exact over every validated operation of those passes.
func passMedians(rep *report, passes []passStats) error {
	kept, limit := quietPasses(passes)
	if len(kept) == 0 {
		return fmt.Errorf("no pass had an operation that passed validation (%d failed of %d)", rep.failed, rep.attempted)
	}
	var secs, rps, lats, steal []float64
	for _, p := range passes {
		steal = append(steal, p.steal)
	}
	for _, p := range kept {
		secs, rps, lats = append(secs, p.seconds), append(rps, p.rps), append(lats, p.lats...)
	}
	sort.Float64s(lats)
	rep.e2e["sweep_s"] = median(secs)
	rep.e2e["throughput_rps"] = median(rps)
	rep.e2e["latency_p50_ms"] = quantile(lats, 0.50)
	rep.e2e["latency_p99_ms"] = quantile(lats, 0.99)
	rep.notes = append(rep.notes,
		fmt.Sprintf("per pass: host steal %% %.1f", steal),
		fmt.Sprintf("%d of %d passes kept (host steal at most %.1f%%), %d latency samples (%d beyond p99); the metrics below are over the kept passes",
			len(kept), len(passes), limit, len(lats), len(lats)-int(math.Ceil(0.99*float64(len(lats))))),
		fmt.Sprintf("per pass: seconds %.3f", secs),
		fmt.Sprintf("per pass: throughput %.4g", rps))
	return nil
}

// servingReport derives a serving run's metrics.
func servingReport(res *servingRun) (*report, error) {
	rep := &report{e2e: map[string]float64{}, layer: map[string]float64{}}
	var okTraced, okUntraced, nTraced int
	var tracedLat time.Duration
	byPass := map[int64][]sample{}
	for _, s := range res.samples {
		rep.attempted++
		byPass[s.idx/ringLen] = append(byPass[s.idx/ringLen], s)
		if s.traced {
			nTraced++
			tracedLat += s.lat
		}
		switch {
		case !s.ok:
			rep.failed++
			if rep.failed <= 3 {
				rep.notes = append(rep.notes, "FAILED: "+s.err)
			}
		case s.traced:
			okTraced++
		default:
			okUntraced++
		}
	}
	keys := make([]int64, 0, len(byPass))
	for k := range byPass {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var passes []passStats
	for _, k := range keys {
		ps := byPass[k]
		if len(ps) != ringLen {
			continue // the pass cut by the deadline
		}
		starts, lats, ok := make([]time.Duration, len(ps)), make([]time.Duration, len(ps)), make([]bool, len(ps))
		for i, s := range ps {
			starts[i], lats[i], ok[i] = s.start, s.lat, s.ok
		}
		p := summarisePass(starts, lats, ok)
		if to, ok := res.marks.at[k+1]; ok && res.marks.at[k] != (hostCPU{}) {
			p.steal = stealPct(res.marks.at[k], to)
		}
		passes = append(passes, p)
	}
	if len(passes) == 0 {
		return nil, fmt.Errorf("no complete pass over the %d-request sequence in the run; lengthen --seconds", ringLen)
	}
	if err := e2eCommon(rep, res.setups); err != nil {
		return nil, err
	}
	if err := passMedians(rep, passes); err != nil {
		return nil, err
	}
	hostNote(rep, stealPct(res.hostBefore, res.hostAfter))
	var byOp [numOps][]float64
	for _, s := range res.samples {
		if s.ok {
			byOp[s.op] = append(byOp[s.op], float64(s.lat)/1e6)
		}
	}
	for op, lats := range byOp {
		if len(lats) == 0 {
			continue
		}
		sort.Float64s(lats)
		rep.notes = append(rep.notes, fmt.Sprintf("latency of %s over the run: n %d, p50 %.4g ms, p99 %.4g ms, max %.4g ms",
			opNames[op], len(lats), quantile(lats, 0.50), quantile(lats, 0.99), lats[len(lats)-1]))
	}
	rep.notes = append(rep.notes,
		fmt.Sprintf("%d requests over %.3fs from %d clients; %d complete passes over the %d-request sequence",
			rep.attempted, res.elapsed.Seconds(), nproc(), len(passes), ringLen),
		"throughput and pass time are medians over the kept passes; latency quantiles are exact over all their samples",
		fmt.Sprintf("setup rounds (s): %v", secondsOf(res.setups)))

	n := float64(rep.attempted)
	L := rep.layer
	L["error_ratio"] = ratio(float64(rep.failed), n)
	L["tsdb.history_points_start"] = float64(res.histStart)
	L["tsdb.history_points_end"] = float64(res.histEnd)
	L["audit.records_start"] = float64(res.auditStart)
	L["audit.records_end"] = float64(res.auditEnd)
	L["telemetry.scrape_ms"] = ratio(float64(res.scrapeNanos)/1e6, float64(res.scrapes))
	L["telemetry.scrape_samples"] = ratio(float64(res.scrapeSample), float64(res.scrapes))
	L["runtime.cpu_ms_per_req"] = float64(res.cpu) / 1e6 / n
	L["runtime.alloc_kb_per_req"] = float64(res.memAfter.TotalAlloc-res.memBefore.TotalAlloc) / 1024 / n
	L["runtime.gc_cycles"] = float64(res.memAfter.NumGC - res.memBefore.NumGC)
	L["runtime.gc_pause_ms"] = float64(res.memAfter.PauseTotalNs-res.memBefore.PauseTotalNs) / 1e6

	d := func(name string) familyTotal { return delta(res.regBefore, res.regAfter, name) }
	runs, coalesced, sheds := d("caladrius_sched_runs_total").value, d("caladrius_sched_coalesced_total").value, d("caladrius_sched_sheds_total").value
	wait := d("caladrius_sched_queue_wait_seconds")
	hits, misses, stale := d("caladrius_calcache_hits_total").value, d("caladrius_calcache_misses_total").value, d("caladrius_calcache_stale_total").value
	L["sched.runs"] = runs
	L["sched.coalesced_ratio"] = ratio(coalesced, runs+coalesced)
	L["sched.shed_ratio"] = ratio(sheds, runs+coalesced+sheds)
	L["sched.queue_wait_ms"] = ratio(wait.sum*1e3, float64(wait.count))
	L["sched.calcache_hit_ratio"] = ratio(hits, hits+misses+stale)
	L["sched.calcache_misses"] = misses
	L["core.model_run_ms"] = ratio(d("caladrius_tenant_model_wall_seconds_total").value*1e3, d("caladrius_tenant_model_runs_total").value)

	if pr := res.probe; pr != nil {
		var calls, nanos int64
		for op := 0; op < numOps; op++ {
			c, ns := pr.serverCalls[op].Load(), pr.serverNanos[op].Load()
			L["api.server_ms."+opNames[op]] = ratio(float64(ns)/1e6, float64(c))
			calls += c
			nanos += ns
		}
		L["api.transport_ms"] = ratio(float64(tracedLat)/1e6, float64(nTraced)) - ratio(float64(nanos)/1e6, float64(calls))
		L["api.resp_bytes"] = ratio(float64(pr.respBytes.Load()), float64(calls))
		L["metrics.provider_calls_per_req"] = ratio(float64(pr.providerCalls.Load()), float64(nTraced))
		L["metrics.provider_ms"] = ratio(float64(pr.providerNanos.Load())/1e6, float64(pr.providerCalls.Load()))
		untracedRPS := ratio(float64(okUntraced), res.untraced.Seconds())
		tracedRPS := ratio(float64(okTraced), res.traced.Seconds())
		L["trace.overhead_pct"] = 100 * ratio(untracedRPS-tracedRPS, untracedRPS)
		rep.notes = append(rep.notes, fmt.Sprintf(
			"tracing overhead on throughput_rps: %.0f rps untraced (%.2fs) vs %.0f rps traced (%.2fs), %.2f%%",
			untracedRPS, res.untraced.Seconds(), tracedRPS, res.traced.Seconds(), L["trace.overhead_pct"]))
	}
	return rep, nil
}

// figuresReport derives a figures run's metrics.
func figuresReport(res *figuresRun) (*report, error) {
	rep := &report{e2e: map[string]float64{}, layer: map[string]float64{}}
	perTable := make([][]float64, len(figureTables))
	perPass := make([][]float64, len(res.passes))
	for _, s := range res.samples {
		rep.attempted++
		if !s.ok {
			rep.failed++
			if rep.failed <= 3 {
				rep.notes = append(rep.notes, "FAILED: "+s.err)
			}
			continue
		}
		ms := float64(s.lat) / 1e6
		perPass[s.pass] = append(perPass[s.pass], ms)
		if s.traced {
			perTable[s.table] = append(perTable[s.table], ms)
		}
	}
	var passes []passStats
	var untracedPasses, tracedPasses []float64
	for i, p := range res.passes {
		lats := perPass[i]
		sort.Float64s(lats)
		passes = append(passes, passStats{
			seconds: p.Seconds(), rps: float64(len(lats)) / p.Seconds(),
			lats: lats, steal: res.steals[i],
		})
		if res.traced[i] {
			tracedPasses = append(tracedPasses, p.Seconds())
		} else {
			untracedPasses = append(untracedPasses, p.Seconds())
		}
	}
	if err := e2eCommon(rep, res.setups); err != nil {
		return nil, err
	}
	if err := passMedians(rep, passes); err != nil {
		return nil, err
	}
	hostNote(rep, res.steal)
	rep.notes = append(rep.notes,
		fmt.Sprintf("%d table regenerations in %d passes over %.3fs, sweep parallelism %d",
			rep.attempted, len(res.passes), res.elapsed.Seconds(), nproc()),
		fmt.Sprintf("throughput (tables/s) and pass time are medians over the kept passes of %d tables each; per-table latency quantiles are exact over all their tables, so p99 is within a table or two of the slowest",
			len(figureTables)),
		fmt.Sprintf("setup rounds (s): %v", secondsOf(res.setups)))

	n := float64(rep.attempted)
	L := rep.layer
	L["error_ratio"] = ratio(float64(rep.failed), n)
	for i, t := range figureTables {
		L["experiments."+t.name+"_ms"] = mean(perTable[i])
	}
	var alloc float64
	for _, a := range res.alloc {
		alloc += float64(a)
	}
	alloc = ratio(alloc, float64(len(res.alloc)))
	L["runtime.alloc_mb_per_pass"] = alloc / (1 << 20)
	L["runtime.alloc_kb_per_req"] = alloc / 1024 / float64(len(figureTables))
	L["runtime.cpu_ms_per_req"] = float64(res.cpu) / 1e6 / n
	L["runtime.gc_cycles"] = float64(res.gcs)
	L["runtime.gc_pause_ms"] = float64(res.pauses) / 1e6
	if len(tracedPasses) > 0 {
		u, t := median(untracedPasses), median(tracedPasses)
		L["trace.overhead_pct"] = 100 * ratio(t-u, u)
		rep.notes = append(rep.notes, fmt.Sprintf(
			"tracing overhead on sweep_s: %.3fs untraced vs %.3fs traced (medians of %d and %d passes), %.2f%%",
			u, t, len(untracedPasses), len(tracedPasses), L["trace.overhead_pct"]))
	}
	return rep, nil
}

// hostNote records the host's steal time during the measured window.
func hostNote(rep *report, steal float64) {
	rep.layer["host.steal_pct"] = steal
	rep.notes = append(rep.notes, fmt.Sprintf("host steal time during the measured window: %.1f%% of machine CPU time", steal))
}

// e2eCommon fills the metrics every workload reports the same way.
func e2eCommon(rep *report, setups []time.Duration) error {
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	rep.e2e["setup_s"] = median(durationSeconds(setups))
	rep.e2e["peak_rss_mb"] = rss
	return nil
}

func durationSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func secondsOf(ds []time.Duration) string {
	return fmt.Sprintf("%.3f", durationSeconds(ds))
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}
