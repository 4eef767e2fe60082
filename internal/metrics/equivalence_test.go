package metrics

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"
	"time"

	"caladrius/internal/heron"
	"caladrius/internal/tsdb"
)

// referenceSeriesByTime, referenceWindows and referenceSourceRate are
// the map-based provider the sorted merge replaced: each metric's
// Downsample is indexed by bucket time, windows are gathered in a map
// and sorted. They define the output the provider must reproduce bit
// for bit.
func referenceSeriesByTime(p *TSDBProvider, metric string, sel tsdb.Labels, start, end time.Time, agg tsdb.Agg) (map[time.Time]float64, error) {
	s, err := p.db.Downsample(metric, sel, start, end, p.window, tsdb.AggSum, agg)
	if err != nil {
		if errors.Is(err, tsdb.ErrNoData) {
			return map[time.Time]float64{}, nil
		}
		return nil, err
	}
	out := make(map[time.Time]float64, len(s.Points))
	for _, pt := range s.Points {
		out[pt.T] = pt.V
	}
	return out, nil
}

func referenceWindows(p *TSDBProvider, sel tsdb.Labels, start, end time.Time) ([]Window, error) {
	byTime := map[time.Time]*Window{}
	found := false
	for _, spec := range windowMetrics {
		vals, err := referenceSeriesByTime(p, spec.name, sel, start, end, spec.merge)
		if err != nil {
			return nil, err
		}
		for t, v := range vals {
			found = true
			w, ok := byTime[t]
			if !ok {
				w = &Window{T: t}
				byTime[t] = w
			}
			spec.store(w, v)
		}
	}
	if !found {
		return nil, fmt.Errorf("%w: selector %v in [%s, %s)", ErrNoData, sel, start, end)
	}
	out := make([]Window, 0, len(byTime))
	for _, w := range byTime {
		out = append(out, *w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].T.Before(out[j].T) })
	return out, nil
}

func referenceSourceRate(p *TSDBProvider, topology string, spouts []string, start, end time.Time) ([]tsdb.Point, error) {
	if len(spouts) == 0 {
		return nil, errors.New("metrics: no spout components given")
	}
	totals := map[time.Time]float64{}
	for _, spout := range spouts {
		vals, err := referenceSeriesByTime(p, heron.MetricSourceCount, tsdb.Labels{"topology": topology, "component": spout}, start, end, tsdb.AggSum)
		if err != nil {
			return nil, err
		}
		for t, v := range vals {
			totals[t] += v
		}
	}
	if len(totals) == 0 {
		return nil, fmt.Errorf("%w: source rate of %q spouts %v", ErrNoData, topology, spouts)
	}
	out := make([]tsdb.Point, 0, len(totals))
	for t, v := range totals {
		out = append(out, tsdb.Point{T: t, V: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].T.Before(out[j].T) })
	return out, nil
}

// sameFloat compares by bit pattern, so signed zeros and infinities
// must match exactly. NaNs compare as a class: x86 adds two NaNs to
// the payload of whichever operand the compiler placed first, and the
// compiler may commute an addition, so the payload of NaN + NaN is not
// fixed by the source order of the operands.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

func sameWindow(a, b Window) bool {
	return a.T == b.T && sameFloat(a.Source, b.Source) && sameFloat(a.Arrival, b.Arrival) &&
		sameFloat(a.Execute, b.Execute) && sameFloat(a.Emit, b.Emit) && sameFloat(a.FailedTuples, b.FailedTuples) &&
		sameFloat(a.BackpressureMs, b.BackpressureMs) && sameFloat(a.CPULoad, b.CPULoad) && sameFloat(a.LatencyMs, b.LatencyMs)
}

func sameError(got, want error) string {
	if (got == nil) != (want == nil) || got != nil && (got.Error() != want.Error() || errors.Is(got, ErrNoData) != errors.Is(want, ErrNoData)) {
		return fmt.Sprintf("error %v, want %v", got, want)
	}
	return ""
}

func sameWindows(got, want []Window, gotErr, wantErr error) string {
	if d := sameError(gotErr, wantErr); d != "" {
		return d
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d windows, want %d", len(got), len(want))
	}
	for i := range got {
		if !sameWindow(got[i], want[i]) {
			return fmt.Sprintf("window %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	return ""
}

func samePoints(got, want []tsdb.Point, gotErr, wantErr error) string {
	if d := sameError(gotErr, wantErr); d != "" {
		return d
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d points, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].T != want[i].T || !sameFloat(got[i].V, want[i].V) {
			return fmt.Sprintf("point %d = %v, want %v", i, got[i], want[i])
		}
	}
	return ""
}

// TestProviderMatchesReference is the merge's equivalence property.
// Random stores give each (component, instance) a random subset of the
// window metrics, each with its own gaps, so entities miss metrics and
// metrics miss windows in different places; values include −0, NaN and
// ±Inf; topologies have one to three spouts.
func TestProviderMatchesReference(t *testing.T) {
	components := []string{"s0", "s1", "s2", "bolt"}
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		db := tsdb.New(0)
		start := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
		for _, comp := range components {
			for inst := 0; inst < 1+r.Intn(3); inst++ {
				labels := tsdb.Labels{"topology": "t", "component": comp, "instance": strconv.Itoa(inst)}
				for _, m := range windowMetrics {
					if r.Intn(4) == 0 {
						continue // this entity does not record m
					}
					for minute := 0; minute < 12; minute++ {
						if r.Intn(5) == 0 {
							continue // gap
						}
						for k := 0; k < 1+r.Intn(3); k++ {
							v := float64(r.Intn(1000)) / 3
							switch r.Intn(25) {
							case 0:
								v = math.Copysign(0, -1)
							case 1:
								v = math.NaN()
							case 2:
								v = math.Inf(1 - 2*r.Intn(2))
							}
							db.Append(m.name, labels, start.Add(time.Duration(minute)*time.Minute+time.Duration(r.Intn(60))*time.Second), v)
						}
					}
				}
			}
		}
		p, err := NewTSDBProvider(db, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		from := start.Add(time.Duration(r.Intn(3)) * time.Minute)
		to := from.Add(time.Duration(r.Intn(12)) * time.Minute)
		for _, comp := range append(components, "ghost") {
			got, gotErr := p.ComponentWindows("t", comp, from, to)
			want, wantErr := referenceWindows(p, tsdb.Labels{"topology": "t", "component": comp}, from, to)
			if d := sameWindows(got, want, gotErr, wantErr); d != "" {
				t.Fatalf("seed %d ComponentWindows(%s): %s", seed, comp, d)
			}
			for inst := 0; inst < 4; inst++ {
				got, gotErr := p.InstanceWindows("t", comp, inst, from, to)
				want, wantErr := referenceWindows(p, tsdb.Labels{"topology": "t", "component": comp, "instance": fmt.Sprintf("%d", inst)}, from, to)
				if d := sameWindows(got, want, gotErr, wantErr); d != "" {
					t.Fatalf("seed %d InstanceWindows(%s, %d): %s", seed, comp, inst, d)
				}
			}
		}
		spoutSets := [][]string{{"s0"}, {"s0", "s1"}, {"s2", "s0", "s1"}, {"s1", "ghost"}, {"ghost"}, {"bolt"}, nil}
		for _, spouts := range spoutSets {
			got, gotErr := p.SourceRate("t", spouts, from, to)
			want, wantErr := referenceSourceRate(p, "t", spouts, from, to)
			if d := samePoints(got, want, gotErr, wantErr); d != "" {
				t.Fatalf("seed %d SourceRate(%v): %s", seed, spouts, d)
			}
		}
	}
}

// TestSourceRateNegativeZero pins the sign of an all-−0 window: it
// totals +0, as the map-based sum (0 + (−0)) did.
func TestSourceRateNegativeZero(t *testing.T) {
	db := tsdb.New(0)
	start := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	db.Append(heron.MetricSourceCount, tsdb.Labels{"topology": "t", "component": "s"}, start, math.Copysign(0, -1))
	p, err := NewTSDBProvider(db, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := p.SourceRate("t", []string{"s"}, start, start.Add(time.Minute))
	if err != nil || len(pts) != 1 || math.Signbit(pts[0].V) {
		t.Fatalf("SourceRate = %v, %v; want one +0 point", pts, err)
	}
}
