package tsdb

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// refSpan is one series' in-range points as the reference selection
// returns them.
type refSpan struct {
	key    string
	labels Labels
	pts    []sample
}

// referenceSelect is the selection the key-sorted series list
// replaced: every series in the key map is checked with Labels.Matches
// and the matches are sorted by canonical key. It never reads the
// sorted list, and returns the errors the scan returned, formatted
// eagerly.
func referenceSelect(db *DB, metric string, sel Labels, start, end time.Time) ([]refSpan, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	md := db.metrics[metric]
	if md == nil || len(md.byKey) == 0 {
		return nil, fmt.Errorf("%w: metric %q", ErrNoData, metric)
	}
	var spans []refSpan
	for k, sd := range md.byKey {
		if sd.labels.Matches(sel) {
			spans = append(spans, refSpan{key: k, labels: sd.labels, pts: sd.points})
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].key < spans[j].key })
	lo, hi := unixNano(start), unixNano(end)
	var kept []refSpan
	for _, sp := range spans {
		sp.pts = sp.pts[:lowerBound(sp.pts, hi)]
		sp.pts = slices.Clone(sp.pts[lowerBound(sp.pts, lo):])
		if len(sp.pts) > 0 {
			sp.labels = sp.labels.Clone()
			kept = append(kept, sp)
		}
	}
	if len(kept) == 0 {
		return nil, fmt.Errorf("%w: metric %q selector %v in [%s, %s)", ErrNoData, metric, sel, start, end)
	}
	return kept, nil
}

func referenceQuery(db *DB, metric string, sel Labels, start, end time.Time) ([]Series, error) {
	spans, err := referenceSelect(db, metric, sel, start, end)
	if err != nil {
		return nil, err
	}
	out := make([]Series, len(spans))
	for i, sp := range spans {
		out[i] = Series{Metric: metric, Labels: sp.labels}
		for _, p := range sp.pts {
			out[i].Points = append(out[i].Points, p.point())
		}
	}
	return out, nil
}

func referenceAggregate(db *DB, metric string, sel Labels, start, end time.Time, agg Agg) (float64, error) {
	spans, err := referenceSelect(db, metric, sel, start, end)
	if err != nil {
		return 0, err
	}
	var vs []float64
	for _, sp := range spans {
		for _, p := range sp.pts {
			vs = append(vs, p.v)
		}
	}
	return aggregate(agg, vs)
}

func referenceIncrease(db *DB, metric string, sel Labels, start, end time.Time) (total float64, ok bool) {
	spans, err := referenceSelect(db, metric, sel, start, end)
	if err != nil {
		return 0, false
	}
	for _, sp := range spans {
		if len(sp.pts) < 2 {
			continue
		}
		ok = true
		last := sp.pts[len(sp.pts)-1].v
		d := last - sp.pts[0].v
		if d < 0 {
			d = last
		}
		total += d
	}
	return total, ok
}

// referenceLatest scans every series in canonical key order; of last
// points sharing a time, the first series wins.
func referenceLatest(db *DB, metric string, sel Labels) (Point, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	md := db.metrics[metric]
	var keys []string
	if md != nil {
		for k := range md.byKey {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var best sample
	found := false
	for _, k := range keys {
		sd := md.byKey[k]
		if n := len(sd.points); n > 0 && sd.labels.Matches(sel) && (!found || sd.points[n-1].t > best.t) {
			best, found = sd.points[n-1], true
		}
	}
	if !found {
		return Point{}, fmt.Errorf("%w: metric %q selector %v", ErrNoData, metric, sel)
	}
	return best.point(), nil
}

func referenceLabelValues(db *DB, metric, key string) []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	set := map[string]struct{}{}
	if md := db.metrics[metric]; md != nil {
		for _, sd := range md.byKey {
			if v, ok := sd.labels[key]; ok {
				set[v] = struct{}{}
			}
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// sameErr reports how two errors differ in presence, message or
// ErrNoData identity.
func sameErr(got, want error) string {
	if (got == nil) != (want == nil) {
		return fmt.Sprintf("error %v, want %v", got, want)
	}
	if got != nil && (got.Error() != want.Error() || errors.Is(got, ErrNoData) != errors.Is(want, ErrNoData)) {
		return fmt.Sprintf("error %q, want %q", got, want)
	}
	return ""
}

// sameSeries compares series lists by identity, point times (with
// location) and value bit patterns.
func sameSeries(got, want []Series) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d series, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Metric != w.Metric || !reflect.DeepEqual(g.Labels, w.Labels) || len(g.Points) != len(w.Points) {
			return fmt.Sprintf("series %d = %s%v (%d points), want %s%v (%d points)",
				i, g.Metric, g.Labels, len(g.Points), w.Metric, w.Labels, len(w.Points))
		}
		for j, p := range g.Points {
			q := w.Points[j]
			if p.T != q.T || math.Float64bits(p.V) != math.Float64bits(q.V) {
				return fmt.Sprintf("series %d point %d = %v %v, want %v %v", i, j, p.T, p.V, q.T, q.V)
			}
		}
	}
	return ""
}

var (
	labelKeys   = []string{"a", "b", "c", "d"}
	labelValues = []string{"", "x", "y", "z", "0", "1"}
)

// randomLabels draws a label set of 0-4 keys; values include "".
func randomLabels(r *rand.Rand) Labels {
	l := Labels{}
	for _, k := range labelKeys {
		if r.Intn(3) > 0 {
			l[k] = labelValues[r.Intn(len(labelValues))]
		}
	}
	return l
}

// randomSelector draws a selector that may name keys no series has
// ("q"), values no series has ("none"), empty values (which also match
// series without the key), or nothing at all.
func randomSelector(r *rand.Rand) Labels {
	switch r.Intn(8) {
	case 0:
		return nil
	case 1:
		return Labels{}
	case 2:
		return Labels{"q": "x"}
	case 3:
		return Labels{labelKeys[r.Intn(len(labelKeys))]: "none"}
	}
	sel := Labels{}
	for _, k := range labelKeys {
		if r.Intn(3) == 0 {
			sel[k] = labelValues[r.Intn(len(labelValues))]
		}
	}
	return sel
}

// fillRandom appends series with random label sets; a quarter of the
// points land out of order, and values include −0 and, with special,
// NaN and ±Inf (which snapshots cannot carry).
func fillRandom(r *rand.Rand, db *DB, metric string, nSeries int, special bool) {
	const spacing = 10 * time.Second
	for s := 0; s < nSeries; s++ {
		labels := randomLabels(r)
		h := db.Handle(metric, labels)
		for i := 0; i < 1+r.Intn(40); i++ {
			ts := t0.Add(time.Duration(i)*spacing + time.Duration(r.Int63n(int64(spacing))))
			if r.Intn(4) == 0 {
				ts = t0.Add(time.Duration(r.Intn(60)) * spacing)
			}
			v := float64(r.Intn(2000)-1000) / 7
			switch r.Intn(20) {
			case 0:
				v = math.Copysign(0, -1)
			case 1:
				if special {
					v = math.NaN()
				}
			case 2:
				if special {
					v = math.Inf(1 - 2*r.Intn(2))
				}
			}
			if r.Intn(2) == 0 {
				h.Append(ts, v)
			} else {
				db.Append(metric, labels, ts, v)
			}
		}
	}
}

// checkAgainstReference runs every selection-based read over sels and
// compares it with the reference scan.
func checkAgainstReference(t *testing.T, db *DB, metrics []string, sels []Labels, r *rand.Rand) {
	t.Helper()
	for _, metric := range metrics {
		for _, key := range append(labelKeys, "q") {
			if got, want := db.LabelValues(metric, key), referenceLabelValues(db, metric, key); !reflect.DeepEqual(got, want) {
				t.Fatalf("LabelValues(%s, %s) = %q, want %q", metric, key, got, want)
			}
		}
		for _, sel := range sels {
			start := t0.Add(time.Duration(r.Intn(30)-5) * 10 * time.Second)
			end := start.Add(time.Duration(r.Intn(50)) * 10 * time.Second)
			got, gotErr := db.Query(metric, sel, start, end)
			want, wantErr := referenceQuery(db, metric, sel, start, end)
			if d := sameErr(gotErr, wantErr) + sameSeries(got, want); d != "" {
				t.Fatalf("Query(%s, %v): %s", metric, sel, d)
			}
			for _, agg := range allAggs {
				g, gErr := db.Aggregate(metric, sel, start, end, agg)
				w, wErr := referenceAggregate(db, metric, sel, start, end, agg)
				if d := sameErr(gErr, wErr); d != "" || math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("Aggregate(%s, %v, %s) = %v, want %v %s", metric, sel, agg, g, w, d)
				}
				merge := allAggs[r.Intn(len(allAggs))]
				ds, dsErr := db.Downsample(metric, sel, start, end, 30*time.Second, agg, merge)
				rs, rsErr := referenceDownsample(db, metric, sel, start, end, 30*time.Second, agg, merge)
				if d := sameDownsample(ds, rs, dsErr, rsErr); d != "" {
					t.Fatalf("Downsample(%s, %v, %s/%s): %s", metric, sel, agg, merge, d)
				}
			}
			gi, gok := db.Increase(metric, sel, start, end)
			wi, wok := referenceIncrease(db, metric, sel, start, end)
			// Two NaN operands may add to either payload, depending on
			// how the compiler orders them, so NaNs compare as a class.
			if gok != wok || math.Float64bits(gi) != math.Float64bits(wi) && !(math.IsNaN(gi) && math.IsNaN(wi)) {
				t.Fatalf("Increase(%s, %v) = %v %v, want %v %v", metric, sel, gi, gok, wi, wok)
			}
			gl, glErr := db.Latest(metric, sel)
			wl, wlErr := referenceLatest(db, metric, sel)
			if d := sameErr(glErr, wlErr); d != "" || gl.T != wl.T || math.Float64bits(gl.V) != math.Float64bits(wl.V) {
				t.Fatalf("Latest(%s, %v) = %v, want %v %s", metric, sel, gl, wl, d)
			}
		}
	}
}

// TestSelectionMatchesReference is the selection's equivalence
// property: over random label sets, random selectors, out-of-order
// writes, DropMetric and re-creation, and a snapshot round trip, every
// read agrees with the reference scan — series order and value bits
// included. Odd seeds also round-trip the store through a snapshot.
func TestSelectionMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		special := seed%2 == 0
		db := New(0)
		nSeries := 1 + r.Intn(150)
		fillRandom(r, db, "m", nSeries, special)
		fillRandom(r, db, "n", 1+r.Intn(5), special)
		sels := make([]Labels, 12)
		for i := range sels {
			sels[i] = randomSelector(r)
		}
		metrics := []string{"m", "n", "missing"}
		checkAgainstReference(t, db, metrics, sels, r)

		// Drop and re-create: the new metric holds only the new series.
		if !db.DropMetric("m") {
			t.Fatal("DropMetric(m) = false")
		}
		checkAgainstReference(t, db, metrics, sels, r)
		fillRandom(r, db, "m", nSeries, special)
		checkAgainstReference(t, db, metrics, sels, r)
		if special {
			continue
		}

		// A restored store selects the same series in the same order.
		var buf bytes.Buffer
		if err := db.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadSnapshot(&buf)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, back, metrics, sels, r)
		for _, sel := range sels {
			got, gotErr := back.Query("m", sel, minTime, maxTime)
			want, wantErr := db.Query("m", sel, minTime, maxTime)
			if d := sameErr(gotErr, wantErr) + sameSeries(got, want); d != "" {
				t.Fatalf("seed %d: restored Query(%v): %s", seed, sel, d)
			}
		}
	}
}

// TestSeriesListSortedByKey checks the series list directly: it holds
// every series of the key map once, in key order, also after a series
// is added between existing keys.
func TestSeriesListSortedByKey(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	db := New(0)
	fillRandom(r, db, "m", 100, true)
	md := db.metrics["m"]
	check := func() {
		t.Helper()
		byKey := func(a, b *seriesData) int { return strings.Compare(a.key, b.key) }
		if len(md.all) != len(md.byKey) || !slices.IsSortedFunc(md.all, byKey) {
			t.Fatalf("series list: %d entries for %d series, sorted %v", len(md.all), len(md.byKey), slices.IsSortedFunc(md.all, byKey))
		}
		for _, sd := range md.all {
			if md.byKey[sd.key] != sd {
				t.Fatalf("series list holds %q, which the key map does not", sd.key)
			}
		}
	}
	check()
	db.Append("m", Labels{"a": "new"}, minuteAt(0), 1)
	if got, err := db.Query("m", Labels{"a": "new"}, minTime, maxTime); err != nil || len(got) != 1 {
		t.Fatalf("Query of the new series = %v, %v", got, err)
	}
	check()
}

// TestSeriesCreationChurn races series creation through Handle, Append
// and AppendBatch against selections (run under -race by
// scripts/verify.sh).
func TestSeriesCreationChurn(t *testing.T) {
	const iters = 300
	db := New(time.Hour)
	var wg sync.WaitGroup
	wg.Add(4)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			db.Handle("m", Labels{"instance": strconv.Itoa(i), "component": "h"}).Append(minuteAt(i), float64(i))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			db.AppendBatch([]BatchSample{
				{H: db.Handle("m", Labels{"instance": strconv.Itoa(i), "component": "b"}), T: minuteAt(i), V: 1},
				{H: db.Handle("m", Labels{"instance": strconv.Itoa(i), "component": "c"}), T: minuteAt(i), V: 2},
			})
			db.Append("m", Labels{"instance": strconv.Itoa(i), "component": "a"}, minuteAt(i), 3)
		}
	}()
	for _, comp := range []string{"a", "b"} {
		go func() {
			defer wg.Done()
			sel := Labels{"component": comp}
			for i := 0; i < iters; i++ {
				if _, err := db.Downsample("m", sel, t0, minuteAt(iters), time.Minute, AggSum, AggSum); err != nil && !errors.Is(err, ErrNoData) {
					t.Error(err)
					return
				}
				db.LabelValues("m", "instance")
				db.Latest("m", Labels{"instance": strconv.Itoa(i)})
			}
		}()
	}
	wg.Wait()
	if n := db.SeriesCount("m"); n != 4*iters {
		t.Fatalf("series = %d, want %d", n, 4*iters)
	}
	checkAgainstReference(t, db, []string{"m"}, []Labels{{"component": "b"}, {"instance": "7"}, nil}, rand.New(rand.NewSource(1)))
}

// selectCost measures a Downsample that selects one series of a metric
// holding total series: allocations and bytes allocated per run.
func selectCost(total int) (allocs float64, bytes uint64) {
	db := New(0)
	for s := 0; s < total; s++ {
		h := db.Handle("m", Labels{"component": "c", "instance": strconv.Itoa(s)})
		for i := 0; i < 30; i++ {
			h.Append(minuteAt(i), float64(i))
		}
	}
	sel := Labels{"component": "c", "instance": "3"}
	run := func() {
		if _, err := db.Downsample("m", sel, t0, minuteAt(30), time.Minute, AggSum, AggSum); err != nil {
			panic(err)
		}
	}
	allocs = testing.AllocsPerRun(50, run)
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return allocs, (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestSelectAllocsIndependentOfSeriesCount: a selection allocates for
// the series it matches, not for the series the metric holds, in both
// count and size.
func TestSelectAllocsIndependentOfSeriesCount(t *testing.T) {
	smallAllocs, smallBytes := selectCost(10)
	largeAllocs, largeBytes := selectCost(1000)
	if smallAllocs != largeAllocs || largeBytes > smallBytes+64 {
		t.Errorf("1-of-N Downsample: %v allocs (%d B) at N=10, %v allocs (%d B) at N=1000",
			smallAllocs, smallBytes, largeAllocs, largeBytes)
	}
}

// TestNoDataErrorContract: the lazily formatted no-data error is
// ErrNoData to errors.Is, reads exactly as the eagerly formatted one
// did, and a discarded one costs at most one allocation.
func TestNoDataErrorContract(t *testing.T) {
	db := New(0)
	db.Append("m", Labels{"instance": "0"}, minuteAt(0), 1)
	start, end := minuteAt(0), minuteAt(5)
	cases := []struct {
		metric string
		sel    Labels
		start  time.Time
		want   string
	}{
		{"missing", nil, start, fmt.Errorf("%w: metric %q", ErrNoData, "missing").Error()},
		{"m", Labels{"instance": "9"}, start, fmt.Errorf("%w: metric %q selector %v in [%s, %s)", ErrNoData, "m", Labels{"instance": "9"}, start, end).Error()},
		{"m", Labels{"instance": "0"}, minuteAt(1), fmt.Errorf("%w: metric %q selector %v in [%s, %s)", ErrNoData, "m", Labels{"instance": "0"}, minuteAt(1), end).Error()},
	}
	for _, c := range cases {
		_, err := db.Downsample(c.metric, c.sel, c.start, end, time.Minute, AggSum, AggSum)
		if !errors.Is(err, ErrNoData) || err.Error() != c.want {
			t.Errorf("%s %v: error %q (Is ErrNoData %v), want %q", c.metric, c.sel, err, errors.Is(err, ErrNoData), c.want)
		}
		if _, err := db.Query(c.metric, c.sel, c.start, end); err == nil || err.Error() != c.want {
			t.Errorf("Query %s %v: error %v, want %q", c.metric, c.sel, err, c.want)
		}
		if a := testing.AllocsPerRun(100, func() {
			if _, err := db.Downsample(c.metric, c.sel, c.start, end, time.Minute, AggSum, AggSum); err == nil {
				panic("no error")
			}
		}); a > 1 {
			t.Errorf("%s %v: discarded no-data Downsample costs %v allocs, want ≤ 1", c.metric, c.sel, a)
		}
	}
}
