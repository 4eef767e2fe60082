package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// referenceQuantile is the nearest-rank definition computed the slow
// way: the smallest sample with at least q·n samples at or below it.
func referenceQuantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, x := range s {
		n := 0
		for _, y := range s {
			if y <= x {
				n++
			}
		}
		if float64(n) >= q*float64(len(s)) {
			return x
		}
	}
	return s[len(s)-1]
}

func TestQuantileMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 10, 99, 100, 101, 1000, 2000} {
		xs := make([]float64, n)
		for i := range xs {
			// Heavy-tailed latencies with ties, like real samples.
			xs[i] = math.Round(math.Exp(rng.NormFloat64())*100) / 100
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			if got, want := quantile(sorted, q), referenceQuantile(xs, q); got != want {
				t.Errorf("n=%d q=%g: quantile %g, reference %g", n, q, got, want)
			}
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

// TestQuietPassesDropStolenPasses checks which passes the end-to-end
// metrics are taken over: all at or under quietSteal, else the minKept
// with the least host steal, never a pass without latencies.
func TestQuietPassesDropStolenPasses(t *testing.T) {
	busy := make([]float64, 40) // minKept(40) = 5
	for i := range busy {
		busy[i] = float64(40 - i)
	}
	for _, tc := range []struct {
		steal []float64
		want  []float64 // steal of the kept passes, in order
	}{
		{[]float64{0, 1.2, 0, 2}, []float64{0, 1.2, 0, 2}},                  // quiet throughout: all kept
		{[]float64{0, 12, 1.5, 30, 0.5, 9, 20, 25}, []float64{0, 1.5, 0.5}}, // stolen passes dropped
		{[]float64{3, 6, 4, 5, 8, 7, 9, 10}, []float64{3}},                  // busy throughout: the quietest eighth
		{busy, []float64{5, 4, 3, 2, 1}},                                    // the quietest eighth of 40
		{[]float64{20, 20, 20, 20}, []float64{20, 20, 20, 20}},              // equally busy: all kept
	} {
		var passes []passStats
		for _, st := range tc.steal {
			passes = append(passes, passStats{seconds: 1, lats: []float64{1}, steal: st})
		}
		passes = append(passes, passStats{seconds: 1}) // no validated operation
		kept, _ := quietPasses(passes)
		var got []float64
		for _, p := range kept {
			got = append(got, p.steal)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("steal %v: kept %v, want %v", tc.steal, got, tc.want)
		}
	}
}

func TestSameSeedSameRequests(t *testing.T) {
	for _, w := range []string{"model-whatif", "dashboard"} {
		a, err := generate(w, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(w, 3)
		c, _ := generate(w, 4)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 3 gave two different sequences", w)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 3 and 4 gave the same sequence", w)
		}
		// The operation shares are exact, whatever the seed.
		count := func(rs []request) [numOps]int {
			var n [numOps]int
			for _, r := range rs {
				n[r.Op]++
			}
			return n
		}
		if count(a) != count(c) || len(a) != ringLen {
			t.Errorf("%s: operation counts differ between seeds: %v vs %v", w, count(a), count(c))
		}
	}
	if _, err := generate("no-such-workload", 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

// Valid bodies shaped like the daemon's answers.
var validBodies = map[int]string{
	opPerformance: `{"topology":"word-count","evaluated_rate_tpm":3e7,"prediction":{"source_rate_tpm":3e7,"paths":[{}],"output_rate_tpm":1e7,"sink_throughput_tpm":1e7,"saturation_source_tpm":4e7,"total_cpu_cores":2.5}}`,
	opSuggest:     `{"topology":"word-count","evaluated_rate_tpm":3e7,"parallelism":{"splitter":4,"counter":5},"prediction":{"source_rate_tpm":3e7,"paths":[{}],"output_rate_tpm":1e7,"sink_throughput_tpm":1e7,"saturation_source_tpm":4e7,"total_cpu_cores":2.5}}`,
	opCalibrate:   `{"topology":"word-count","calibrated":true}`,
	opQueryRange:  `{"metric":"caladrius_go_heap_alloc_bytes","points":[{"t":"2026-01-01T00:00:00Z","v":1}]}`,
	opAudit:       `{"records":[{"id":1,"topology":"word-count","model":"predict"}],"count":1,"stats":[]}`,
	opUsage:       `{"capacity":256,"principals":1,"top":[{"tenant":"planner","topology":"word-count"}]}`,
}

func TestValidatorRejectsCorruptBodies(t *testing.T) {
	rangeReq := request{Op: opQueryRange, Path: "/api/v1/query_range?metric=caladrius_go_heap_alloc_bytes&window=5m"}
	for op, body := range validBodies {
		if err := validate(op, rangeReq, []byte(body)); err != nil {
			t.Errorf("%s: valid body rejected: %v", opNames[op], err)
		}
		for name, bad := range map[string]string{
			"empty":     "",
			"truncated": body[:len(body)/2],
			"not json":  strings.Replace(body, "{", "<", 1),
		} {
			if validate(op, rangeReq, []byte(bad)) == nil {
				t.Errorf("%s: %s body accepted", opNames[op], name)
			}
		}
	}
	for _, c := range []struct {
		op   int
		body string
	}{
		{opPerformance, strings.Replace(validBodies[opPerformance], "word-count", "other", 1)},
		{opPerformance, strings.Replace(validBodies[opPerformance], `"paths":[{}]`, `"paths":[]`, 1)},
		{opPerformance, strings.Replace(validBodies[opPerformance], `"output_rate_tpm":1e7,`, ``, 1)},
		{opSuggest, strings.Replace(validBodies[opSuggest], `"counter":5`, `"counter":0`, 1)},
		{opCalibrate, `{"topology":"word-count","calibrated":false}`},
		{opQueryRange, `{"metric":"caladrius_go_heap_alloc_bytes","points":[]}`},
		{opQueryRange, strings.Replace(validBodies[opQueryRange], "heap_alloc", "heap_objects", 1)},
		{opAudit, `{"records":null,"count":0,"stats":[]}`},
		{opAudit, strings.Replace(validBodies[opAudit], `"count":1`, `"count":2`, 1)},
		{opUsage, `{"capacity":256,"principals":0,"top":null}`},
	} {
		if validate(c.op, rangeReq, []byte(c.body)) == nil {
			t.Errorf("%s: corrupted body accepted: %s", opNames[c.op], c.body)
		}
	}
}

func TestFigureTableCheckIsByteExact(t *testing.T) {
	refs, err := loadReferences(filepath.Join("..", resultsDir))
	if err != nil {
		t.Fatal(err)
	}
	// The cheapest table, regenerated for real, matches its reference.
	for _, tab := range figureTables {
		if tab.name != "ablation-schedulers" {
			continue
		}
		tbl, err := tab.run(defaultSweep(1))
		if err != nil {
			t.Fatal(err)
		}
		if err := checkTable(tab.name, []byte(tbl.CSV()), refs[tab.name]); err != nil {
			t.Fatal(err)
		}
	}
	for name, want := range refs {
		got := bytes.Clone(want)
		got[len(got)/2] ^= 1
		if checkTable(name, got, want) == nil {
			t.Errorf("%s: table differing in one byte accepted", name)
		}
		if checkTable(name, append(bytes.Clone(want), '\n'), want) == nil {
			t.Errorf("%s: table with one extra byte accepted", name)
		}
	}
}

// TestServingRunIsSteady runs a short dashboard run and checks the
// steady-state claim: the history holds as many points at the end as
// at the start, within historyTolerance, and the audit ledger stays
// full.
func TestServingRunIsSteady(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the daemon for several seconds")
	}
	reqs, err := generate("dashboard", 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runServing(reqs, 2, 3*time.Second, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.samples {
		if !s.ok {
			t.Fatalf("request failed: %s", s.err)
		}
	}
	if d := math.Abs(float64(res.histEnd-res.histStart)) / float64(res.histStart); d > historyTolerance {
		t.Errorf("history points %d at start, %d at end: %.1f%% apart, tolerance %.0f%%",
			res.histStart, res.histEnd, 100*d, 100*historyTolerance)
	}
	if res.auditStart != res.auditEnd {
		t.Errorf("audit records %d at start, %d at end", res.auditStart, res.auditEnd)
	}
	if res.scrapes < 2 {
		t.Errorf("%d scrapes during the run, want the scrape loop running", res.scrapes)
	}
}

// TestTracedAndUntracedReportSameEndToEndNames checks that both kinds
// of run, on every workload, derive every end-to-end metric, and that
// each prints exactly its own metric set on the last line. The runs are
// synthetic: two passes of samples fed through the real report and
// output code.
func TestTracedAndUntracedReportSameEndToEndNames(t *testing.T) {
	var want []string
	for _, m := range endToEnd {
		want = append(want, m.name)
	}
	sort.Strings(want)
	for _, traced := range []bool{false, true} {
		sr := &servingRun{setups: []time.Duration{time.Second}, elapsed: 2 * time.Second, untraced: time.Second, traced: time.Second, marks: newPassMarks()}
		for i := 0; i < 2*ringLen; i++ {
			sr.samples = append(sr.samples, sample{idx: int64(i), op: i % numOps, ok: true,
				traced: traced && i%2 == 1, start: time.Duration(i) * time.Millisecond / 2, lat: time.Millisecond})
		}
		if traced {
			sr.probe = &probe{}
		}
		fr := &figuresRun{setups: []time.Duration{time.Second}, elapsed: 2 * time.Second,
			passes: []time.Duration{time.Second, time.Second}, steals: []float64{0, 0}, traced: []bool{false, traced}}
		for pass := 0; pass < 2; pass++ {
			for i := range figureTables {
				fr.samples = append(fr.samples, figureSample{table: i, pass: pass, traced: fr.traced[pass], ok: true, lat: time.Millisecond})
			}
		}
		serving, err := servingReport(sr)
		if err != nil {
			t.Fatal(err)
		}
		figures, err := figuresReport(fr)
		if err != nil {
			t.Fatal(err)
		}
		for name, rep := range map[string]*report{"serving": serving, "figures": figures} {
			var got []string
			for k := range rep.e2e {
				got = append(got, k)
			}
			sort.Strings(got)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s, traced=%v: end-to-end metrics %v, want %v", name, traced, got, want)
			}
			var out bytes.Buffer
			if err := emit(&out, rep, name, 1, 2, traced); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s, traced=%v: result line %s", name, traced, lines[len(lines)-1])
			}
			for _, m := range defs {
				if v, ok := res.Metrics[m.name]; !ok || v.Unit != m.unit {
					t.Errorf("%s, traced=%v: metric %s missing or with unit %q", name, traced, m.name, v.Unit)
				}
			}
			for _, m := range endToEnd {
				if !strings.Contains(out.String(), m.name) {
					t.Errorf("%s, traced=%v: report does not print %s", name, traced, m.name)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metric
// definitions in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var gotW []string
	for _, w := range spec.Workloads {
		gotW = append(gotW, w.Name)
	}
	if !reflect.DeepEqual(gotW, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", gotW, workloads)
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, code %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
