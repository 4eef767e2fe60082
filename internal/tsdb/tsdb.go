// Package tsdb implements the in-memory time-series metrics database
// Caladrius reads topology metrics from. It stands in for Twitter's
// Cuckoo service and the Heron MetricsCache described in the paper:
// series are identified by a metric name plus a label set (topology,
// component, instance, container, ...), points are stored at arbitrary
// timestamps, and queries support label matching, time ranges,
// cross-series aggregation and downsampling into fixed-width buckets
// (the paper's models consume per-minute series).
//
// The store is safe for concurrent use.
package tsdb

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// ErrNoData is returned by queries that match no points.
var ErrNoData = errors.New("tsdb: no data points match the query")

// noDataError is the ErrNoData a selection returns when it matches no
// points. Callers such as the metrics provider routinely ask for
// metrics an entity does not have and discard the error, so the
// message is formatted only when read. It renders the selector at
// that point: callers must not mutate a selector whose error they
// still hold.
type noDataError struct {
	metric     string
	sel        Labels
	start, end time.Time
	ranged     bool // the metric exists; report the selector and range
}

func (e *noDataError) Error() string {
	if !e.ranged {
		return fmt.Sprintf("%v: metric %q", ErrNoData, e.metric)
	}
	return fmt.Sprintf("%v: metric %q selector %v in [%s, %s)", ErrNoData, e.metric, e.sel, e.start, e.end)
}

func (e *noDataError) Unwrap() error { return ErrNoData }

// Labels is a set of key/value identifiers attached to a series.
// Conventional keys used throughout Caladrius:
//
//	topology, component, instance, container, stream
type Labels map[string]string

// canonical renders labels in deterministic order for use as a map key.
func (l Labels) canonical() string {
	if len(l) == 0 {
		return ""
	}
	// Label sets are tiny (node/instance/component — rarely past four
	// keys), so a fixed stack buffer plus insertion sort beats the
	// allocate-sort-build path on the Append hot path; the sized Grow
	// leaves the builder's single buffer as the only allocation.
	var buf [8]string
	keys := buf[:0]
	if len(l) > len(buf) {
		keys = make([]string, 0, len(l))
	}
	size := 2*len(l) - 1 // one '=' per pair, ',' between pairs
	for k, v := range l {
		keys = append(keys, k)
		size += len(k) + len(v)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	var b strings.Builder
	b.Grow(size)
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(l[k])
	}
	return b.String()
}

// Clone returns an independent copy of l.
func (l Labels) Clone() Labels {
	c := make(Labels, len(l))
	for k, v := range l {
		c[k] = v
	}
	return c
}

// Matches reports whether every key in sel is present in l with an
// equal value. An empty selector matches everything.
func (l Labels) Matches(sel Labels) bool {
	for k, v := range sel {
		if l[k] != v {
			return false
		}
	}
	return true
}

// Point is a single observation.
type Point struct {
	T time.Time
	V float64
}

// Series is an ordered sequence of points with its identity.
type Series struct {
	Metric string
	Labels Labels
	Points []Point
}

// sample is one stored observation: a Unix-nanosecond time and a
// value. It holds no pointers (time.Time carries a *Location), so the
// garbage collector never scans point storage and copies pay no write
// barriers. Point is the public form; queries convert at the boundary.
type sample struct {
	t int64
	v float64
}

type seriesData struct {
	key    string // canonical labels
	labels Labels
	points []sample // sorted by t ascending
}

// metricData is one metric's series. Series are only ever added
// (DropMetric removes the whole metricData), so all never holds a stale
// entry.
type metricData struct {
	byKey map[string]*seriesData // canonical key -> series
	all   []*seriesData          // every series, sorted by key
}

// insertByKey adds sd to list, which is sorted by key and does not hold
// sd's key yet.
func insertByKey(list []*seriesData, sd *seriesData) []*seriesData {
	i, _ := slices.BinarySearchFunc(list, sd.key, func(e *seriesData, k string) int { return strings.Compare(e.key, k) })
	return slices.Insert(list, i, sd)
}

// seriesOf returns metric's series in key order, or none for a metric
// never written. Caller holds db.mu.
func (db *DB) seriesOf(metric string) []*seriesData {
	if md := db.metrics[metric]; md != nil {
		return md.all
	}
	return nil
}

// Bounds of the representable sample times.
var (
	minTime = time.Unix(0, math.MinInt64)
	maxTime = time.Unix(0, math.MaxInt64)
)

// unixNano converts t to stored form, clamping times outside the int64
// nanosecond range (years 1678-2262) instead of overflowing.
func unixNano(t time.Time) int64 {
	switch {
	case t.Before(minTime):
		return math.MinInt64
	case t.After(maxTime):
		return math.MaxInt64
	}
	return t.UnixNano()
}

// point converts a stored sample to its public form, in UTC.
func (s sample) point() Point { return Point{T: time.Unix(0, s.t).UTC(), V: s.v} }

// lowerBound returns the index of the first point at or after t.
func lowerBound(pts []sample, t int64) int {
	return sort.Search(len(pts), func(i int) bool { return pts[i].t >= t })
}

// DB is the in-memory time-series store.
type DB struct {
	mu        sync.RWMutex
	metrics   map[string]*metricData
	retention time.Duration // 0 = keep forever
}

// New creates an empty store. retention ≤ 0 keeps points forever;
// otherwise GC (called implicitly on writes) drops points older than
// retention relative to the newest point in their series.
func New(retention time.Duration) *DB {
	return &DB{
		metrics:   make(map[string]*metricData),
		retention: retention,
	}
}

// SetRetention changes the retention window. d ≤ 0 keeps points
// forever. Existing points are pruned lazily by subsequent writes to
// their series, like any retention expiry.
func (db *DB) SetRetention(d time.Duration) {
	db.mu.Lock()
	db.retention = d
	db.mu.Unlock()
}

// Append records one observation.
func (db *DB) Append(metric string, labels Labels, t time.Time, v float64) {
	if metric == "" {
		panic("tsdb: empty metric name")
	}
	key := labels.canonical()
	db.mu.Lock()
	defer db.mu.Unlock()
	db.appendLocked(db.seriesLocked(metric, key, labels), unixNano(t), v)
}

// seriesLocked returns (creating if needed) the series of metric with
// the given pre-canonicalised label key. Creating one keeps the series
// list sorted. Caller holds the write lock.
func (db *DB) seriesLocked(metric, key string, labels Labels) *seriesData {
	md, ok := db.metrics[metric]
	if !ok {
		md = &metricData{byKey: make(map[string]*seriesData)}
		db.metrics[metric] = md
	}
	sd, ok := md.byKey[key]
	if !ok {
		sd = &seriesData{key: key, labels: labels.Clone()}
		md.byKey[key] = sd
		md.all = insertByKey(md.all, sd)
	}
	return sd
}

// appendLocked inserts one point into sd and applies retention. Caller
// holds db.mu.
func (db *DB) appendLocked(sd *seriesData, t int64, v float64) {
	n := len(sd.points)
	if db.retention > 0 && n == cap(sd.points) {
		// A retained series keeps a steady length, so grow it by a
		// quarter rather than by append's up-to-doubling, which would
		// leave up to half of every array dead until the next growth.
		grown := make([]sample, n, n+n/4+8)
		copy(grown, sd.points)
		sd.points = grown
	}
	if n > 0 && t < sd.points[n-1].t {
		// Out-of-order write: insert after any equal times (rare path).
		idx := sort.Search(n, func(i int) bool { return sd.points[i].t > t })
		sd.points = append(sd.points, sample{})
		copy(sd.points[idx+1:], sd.points[idx:])
		sd.points[idx] = sample{t, v}
	} else {
		sd.points = append(sd.points, sample{t, v})
	}
	if db.retention > 0 {
		last := sd.points[len(sd.points)-1].t
		cutoff := last - int64(db.retention)
		if cutoff > last { // wrapped below the earliest representable time
			cutoff = math.MinInt64
		}
		// Reslice the expired prefix away rather than copying the live
		// window down: the next growth drops the dead prefix, so the
		// backing array stays within a quarter of the live length.
		sd.points = sd.points[lowerBound(sd.points, cutoff):]
	}
}

// SeriesHandle is an interned reference to one series. Append through
// a handle skips the per-call label canonicalisation DB.Append pays,
// and after the first point skips the metric/series map lookups too —
// the hot-path write API for producers (like the simulator) that emit
// into a fixed set of series every window.
//
// Handles are safe for concurrent use. A handle holds its own copy of
// the labels, so callers may mutate the map passed to Handle. After
// DropMetric, an already-bound handle keeps appending into the
// detached series (invisible to queries); re-intern with Handle to
// write into the recreated metric.
type SeriesHandle struct {
	db     *DB
	metric string
	key    string
	labels Labels
	sd     *seriesData // bound lazily on first Append, under db.mu
}

// Handle interns a series reference. The series itself is not created
// until the first Append, so querying behaviour (Metrics, SeriesCount,
// LabelValues) is unchanged for handles that never write.
func (db *DB) Handle(metric string, labels Labels) *SeriesHandle {
	if metric == "" {
		panic("tsdb: empty metric name")
	}
	return &SeriesHandle{db: db, metric: metric, key: labels.canonical(), labels: labels.Clone()}
}

// Append records one observation into the interned series.
func (h *SeriesHandle) Append(t time.Time, v float64) {
	h.db.mu.Lock()
	if h.sd == nil {
		h.sd = h.db.seriesLocked(h.metric, h.key, h.labels)
	}
	h.db.appendLocked(h.sd, unixNano(t), v)
	h.db.mu.Unlock()
}

// BatchSample is one observation in an AppendBatch call, addressed by
// an interned SeriesHandle.
type BatchSample struct {
	H *SeriesHandle
	T time.Time
	V float64
}

// AppendBatch records every sample under a single lock acquisition —
// the bulk write API for producers that emit many series at one
// instant (the telemetry scraper flushes a whole registry walk this
// way). Compared to per-sample Append this pays one writer-lock
// round-trip instead of len(samples), so concurrent readers see one
// short exclusive section rather than hundreds of lock convoys. Every
// handle must have been interned from this DB; a foreign handle
// panics.
func (db *DB) AppendBatch(samples []BatchSample) {
	if len(samples) == 0 {
		return
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for i := range samples {
		h := samples[i].H
		if h.db != db {
			panic("tsdb: AppendBatch with a handle from a different DB")
		}
		if h.sd == nil {
			h.sd = db.seriesLocked(h.metric, h.key, h.labels)
		}
		db.appendLocked(h.sd, unixNano(samples[i].T), samples[i].V)
	}
}

// Metrics returns the sorted list of metric names present.
func (db *DB) Metrics() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.metrics))
	for m := range db.metrics {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// SeriesCount returns the number of distinct series stored for metric.
func (db *DB) SeriesCount(metric string) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.seriesOf(metric))
}

// span is one matching series' in-range points, read in place from
// storage under the read lock.
type span struct {
	labels Labels
	pts    []sample
}

// rangeLocked returns, in canonical label order, the points in
// [start, end) of every series of metric that matches sel and has any.
// It walks the key-sorted series list, so the matches need no sort,
// and allocates nothing when nothing matches but the error. The point
// slices alias storage: they are valid only while the caller holds
// db.mu, and must not be modified.
func (db *DB) rangeLocked(metric string, sel Labels, start, end time.Time) ([]span, error) {
	md := db.metrics[metric]
	if md == nil {
		return nil, &noDataError{metric: metric}
	}
	lo, hi := unixNano(start), unixNano(end)
	var spans []span
	for _, sd := range md.all {
		if !sd.labels.Matches(sel) {
			continue
		}
		pts := sd.points[:lowerBound(sd.points, hi)]
		pts = pts[lowerBound(pts, lo):]
		if len(pts) == 0 {
			continue
		}
		if spans == nil {
			// Room for a component's instances, not the metric's series.
			spans = make([]span, 0, 8)
		}
		spans = append(spans, span{labels: sd.labels, pts: pts})
	}
	if len(spans) == 0 {
		return nil, &noDataError{metric: metric, sel: sel, start: start, end: end, ranged: true}
	}
	return spans, nil
}

// Query returns all series of the metric matching the selector,
// restricted to points with start ≤ t < end. Series and their points
// are copies; callers may mutate them freely. Series are returned in
// deterministic (canonical label) order, with point times in UTC.
func (db *DB) Query(metric string, sel Labels, start, end time.Time) ([]Series, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	spans, err := db.rangeLocked(metric, sel, start, end)
	if err != nil {
		return nil, err
	}
	out := make([]Series, len(spans))
	for i, sp := range spans {
		pts := make([]Point, len(sp.pts))
		for j, p := range sp.pts {
			pts[j] = p.point()
		}
		out[i] = Series{Metric: metric, Labels: sp.labels.Clone(), Points: pts}
	}
	return out, nil
}

// Agg names a cross-point aggregation function.
type Agg string

// Supported aggregations.
const (
	AggSum    Agg = "sum"
	AggMean   Agg = "mean"
	AggMin    Agg = "min"
	AggMax    Agg = "max"
	AggCount  Agg = "count"
	AggMedian Agg = "median"
	AggLast   Agg = "last"
)

// aggregate reduces vs with agg. It may reorder vs: the median sorts
// it in place, so callers pass a slice they own.
func aggregate(agg Agg, vs []float64) (float64, error) {
	if len(vs) == 0 {
		return 0, ErrNoData
	}
	switch agg {
	case AggSum:
		var s float64
		for _, v := range vs {
			s += v
		}
		return s, nil
	case AggMean:
		var s float64
		for _, v := range vs {
			s += v
		}
		return s / float64(len(vs)), nil
	case AggMin:
		m := vs[0]
		for _, v := range vs[1:] {
			if v < m {
				m = v
			}
		}
		return m, nil
	case AggMax:
		m := vs[0]
		for _, v := range vs[1:] {
			if v > m {
				m = v
			}
		}
		return m, nil
	case AggCount:
		return float64(len(vs)), nil
	case AggMedian:
		sort.Float64s(vs)
		n := len(vs)
		if n%2 == 1 {
			return vs[n/2], nil
		}
		return (vs[n/2-1] + vs[n/2]) / 2, nil
	case AggLast:
		return vs[len(vs)-1], nil
	default:
		return 0, fmt.Errorf("tsdb: unknown aggregation %q", agg)
	}
}

// Aggregate reduces every matching point in the range to one value.
// Values are taken series by series in canonical label order, points
// in time order within each series.
func (db *DB) Aggregate(metric string, sel Labels, start, end time.Time, agg Agg) (float64, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	spans, err := db.rangeLocked(metric, sel, start, end)
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

// Increase sums per-series counter growth over [start, end): each
// matching series contributes its last in-range value minus its first,
// or its last value alone when the counter reset inside the window.
// ok requires at least one matching series with two points — a single
// sample cannot measure growth.
func (db *DB) Increase(metric string, sel Labels, start, end time.Time) (total float64, ok bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	spans, err := db.rangeLocked(metric, sel, start, end)
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

// cell is one series' reduced value for one bucket.
type cell struct {
	b int64 // bucket index: unix ns / step, truncated toward zero
	v float64
}

// Downsample buckets each matching series into fixed-width windows
// aligned to the Unix epoch and reduces each bucket with bucketAgg,
// then merges series point-wise with mergeAgg (use AggSum to combine
// instances into a component). Buckets with no points are omitted.
// The returned series has one point per non-empty bucket, stamped at
// the bucket start in UTC, in ascending time order.
//
// It runs in one pass under the read lock. Each series' points are
// already time-sorted, so its buckets come out as one sorted run;
// the runs share one buffer and are k-way merged in canonical label
// order. Summation order is points in time order within a bucket,
// then series in canonical label order, so results are bit-for-bit
// what a copy-then-group implementation gives. Allocations are
// O(series), not O(points).
func (db *DB) Downsample(metric string, sel Labels, start, end time.Time, step time.Duration, bucketAgg, mergeAgg Agg) (Series, error) {
	if step <= 0 {
		return Series{}, fmt.Errorf("tsdb: non-positive step %s", step)
	}
	st := int64(step)
	db.mu.RLock()
	defer db.mu.RUnlock()
	spans, err := db.rangeLocked(metric, sel, start, end)
	if err != nil {
		return Series{}, err
	}
	// Size the shared run buffer: a series spanning buckets b0..b1
	// yields at most min(points, b1-b0+1) cells. A span that wrapped
	// negative falls back to the point count.
	size := 0
	for _, sp := range spans {
		n := len(sp.pts)
		if nb := sp.pts[n-1].t/st - sp.pts[0].t/st; nb >= 0 && nb < int64(n) {
			n = int(nb) + 1
		}
		size += n
	}
	cells := make([]cell, 0, size)
	bounds := make([]int, 1, len(spans)+1) // run i is cells[bounds[i]:bounds[i+1]]
	var scratch []float64
	longest := 0
	for _, sp := range spans {
		pts := sp.pts
		for len(pts) > 0 {
			b := pts[0].t / st
			scratch = scratch[:0]
			j := 0
			for ; j < len(pts) && pts[j].t/st == b; j++ {
				scratch = append(scratch, pts[j].v)
			}
			v, err := aggregate(bucketAgg, scratch)
			if err != nil {
				return Series{}, err
			}
			cells = append(cells, cell{b, v})
			pts = pts[j:]
		}
		longest = max(longest, len(cells)-bounds[len(bounds)-1])
		bounds = append(bounds, len(cells))
	}

	// heads[i] is run i's next unmerged cell. Each round takes the
	// smallest head bucket, gathers every run's value for it in run
	// (canonical label) order, and finds the next smallest on the way.
	heads, ends := slices.Clone(bounds[:len(spans)]), bounds[1:]
	next, more := int64(0), false
	for _, h := range heads {
		if b := cells[h].b; !more || b < next {
			next, more = b, true
		}
	}
	out := Series{Metric: metric, Labels: sel.Clone(), Points: make([]Point, 0, longest)}
	for more {
		b := next
		more = false
		scratch = scratch[:0]
		for i, h := range heads {
			if h == ends[i] {
				continue
			}
			if cells[h].b == b {
				scratch = append(scratch, cells[h].v)
				h++
				heads[i] = h
				if h == ends[i] {
					continue
				}
			}
			if nb := cells[h].b; !more || nb < next {
				next, more = nb, true
			}
		}
		v, err := aggregate(mergeAgg, scratch)
		if err != nil {
			return Series{}, err
		}
		out.Points = append(out.Points, Point{T: time.Unix(0, b*st).UTC(), V: v})
	}
	return out, nil
}

// Latest returns the most recent point across all series matching the
// selector, with its time in UTC. Of series whose last points share a
// time, the first in canonical label order wins.
func (db *DB) Latest(metric string, sel Labels) (Point, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var best sample
	found := false
	for _, sd := range db.seriesOf(metric) {
		if !sd.labels.Matches(sel) || len(sd.points) == 0 {
			continue
		}
		p := sd.points[len(sd.points)-1]
		if !found || p.t > best.t {
			best = p
			found = true
		}
	}
	if !found {
		return Point{}, fmt.Errorf("%w: metric %q selector %v", ErrNoData, metric, sel)
	}
	return best.point(), nil
}

// LabelValues returns the sorted distinct values of the given label key
// across all series of the metric.
func (db *DB) LabelValues(metric, key string) []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	set := map[string]struct{}{}
	for _, sd := range db.seriesOf(metric) {
		if v, ok := sd.labels[key]; ok {
			set[v] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// DropMetric removes all series of a metric. It reports whether the
// metric existed.
func (db *DB) DropMetric(metric string) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	_, ok := db.metrics[metric]
	delete(db.metrics, metric)
	return ok
}

// TotalPoints returns the total number of stored points, for tests and
// capacity monitoring.
func (db *DB) TotalPoints() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var n int
	for _, md := range db.metrics {
		for _, sd := range md.all {
			n += len(sd.points)
		}
	}
	return n
}
