package main

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"caladrius/internal/audit"
	"caladrius/internal/telemetry"
)

// Serving-workload shape.
const (
	// scrapeInterval paces the benchmark-owned scrape loop and spaces
	// the back-dated pre-fill scrapes.
	scrapeInterval = time.Second
	// queryWindow is the dashboard's query_range window (the "5m" in
	// rangeQueries); history retention equals it, so the pre-fill
	// covers the whole window and the store holds the same number of
	// points at the end of a run as at its start.
	queryWindow = 5 * time.Minute
	// warmRequests run at full concurrency after the pre-fill, each
	// validated, to warm the connection pool and the calibration cache.
	warmRequests = 200
	// setupRounds is how many times a run sets up (assembles and warms
	// the daemon, or loads the figure references and regenerates the
	// set-up table); setup_s is their median and the last set-up is the
	// one measured.
	setupRounds = 3
	// historyTolerance is how far the history's point count may drift
	// between the start and the end of a run: retention keeps every
	// series at one query window of points, and only the derived
	// per-interval quantile series, which gain a point only in intervals
	// with new observations, move.
	historyTolerance = 0.05
	// traceSlice alternates traced and untraced time in a traced run.
	traceSlice = 250 * time.Millisecond
)

// sample is the outcome of one request.
type sample struct {
	idx    int64 // position in the claimed request sequence
	op     int
	ok     bool
	traced bool
	start  time.Duration // since the start of the measured window
	lat    time.Duration
	err    string
}

// loadClient issues generated requests against a daemon over a pool of
// at most conns connections.
type loadClient struct {
	base string
	http *http.Client
}

func newLoadClient(base string, conns int) *loadClient {
	return &loadClient{base: base, http: &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}}
}

// do sends r and checks the answer: a transport error, a non-2xx status
// or a 2xx body that fails validation is a failure. skipValidate only
// requires a 2xx (used while the pre-fill has not yet covered the
// query window).
func (c *loadClient) do(r request, skipValidate bool) error {
	var body io.Reader
	if r.Body != "" {
		body = strings.NewReader(r.Body)
	}
	req, err := http.NewRequest(r.Method, c.base+r.Path, body)
	if err != nil {
		return err
	}
	req.Header.Set("X-Caladrius-Tenant", r.Tenant)
	if r.Body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("%s %s: status %d: %.200s", r.Method, r.Path, resp.StatusCode, b)
	}
	if skipValidate {
		return nil
	}
	return validate(r.Op, r, b)
}

// servingRun is everything one serving-workload run measured.
type servingRun struct {
	setups   []time.Duration
	samples  []sample
	elapsed  time.Duration
	untraced time.Duration // time spent in untraced slices
	traced   time.Duration // time spent in traced slices

	histStart, histEnd   int
	auditStart, auditEnd int

	scrapes      int
	scrapeNanos  time.Duration
	scrapeSample int

	regBefore, regAfter registryTotals
	memBefore, memAfter runtime.MemStats
	cpu                 time.Duration
	hostBefore          hostCPU
	hostAfter           hostCPU
	marks               *passMarks
	probe               *probe
}

// passMarks holds a host CPU reading taken when a pass's first request
// was claimed, by pass number.
type passMarks struct {
	mu sync.Mutex
	at map[int64]hostCPU
}

func newPassMarks() *passMarks { return &passMarks{at: map[int64]hostCPU{}} }

// mark records the reading for pass, unless one is already there.
func (m *passMarks) mark(pass int64) {
	if m == nil {
		return
	}
	h := readHostCPU()
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.at[pass]; !ok {
		m.at[pass] = h
	}
}

// runServing sets the daemon up rounds times, then drives reqs closed
// loop from clients goroutines for dur. With traced set, the trace
// seams are installed and alternate on and off every traceSlice.
func runServing(reqs []request, clients int, dur time.Duration, traced bool, rounds int) (*servingRun, error) {
	res := &servingRun{}
	var d *daemon
	var c *loadClient
	for round := 0; round < rounds; round++ {
		if d != nil {
			c.http.CloseIdleConnections()
			if err := d.Close(); err != nil {
				return nil, err
			}
			runtime.GC()
		}
		if traced {
			res.probe = &probe{}
		}
		began := time.Now()
		var err error
		d, c, err = setupServing(reqs, clients, res.probe)
		if err != nil {
			if d != nil {
				c.http.CloseIdleConnections()
				_ = d.Close()
			}
			return nil, fmt.Errorf("setup: %w", err)
		}
		res.setups = append(res.setups, time.Since(began))
	}
	defer func() {
		c.http.CloseIdleConnections()
		_ = d.Close()
	}()

	// Every run starts timing from a collected heap, so the garbage the
	// set-up left behind does not pace the first collections.
	runtime.GC()
	res.histStart, res.auditStart = d.History.TotalPoints(), d.Ledger.Len()
	res.regBefore = readRegistry(d.Registry)
	runtime.ReadMemStats(&res.memBefore)
	cpu0 := cpuTime()
	res.hostBefore = readHostCPU()

	stopScrape := make(chan struct{})
	scrapeDone := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		t := time.NewTicker(scrapeInterval)
		defer t.Stop()
		for {
			select {
			case <-stopScrape:
				return
			case now := <-t.C:
				n := d.Scraper.ScrapeOnce(now)
				res.scrapeNanos += time.Since(now)
				res.scrapes++
				res.scrapeSample += n
			}
		}
	}()

	res.marks = newPassMarks()
	res.samples, res.elapsed, res.untraced, res.traced = closedLoop(c, reqs, clients, dur, res.probe, res.marks)
	res.marks.mark(int64(len(res.samples)) / int64(len(reqs)))

	close(stopScrape)
	<-scrapeDone
	res.cpu = cpuTime() - cpu0
	res.hostAfter = readHostCPU()
	runtime.ReadMemStats(&res.memAfter)
	res.regAfter = readRegistry(d.Registry)
	res.histEnd, res.auditEnd = d.History.TotalPoints(), d.Ledger.Len()
	return res, nil
}

// setupServing assembles one daemon and brings it to steady state: the
// history pre-filled over the whole query window by back-dated scrapes,
// the audit ledger filled to capacity, connections and the calibration
// cache warm. Between two pre-fill scrapes it sends one request of each
// operation in the workload, so that every per-route series gains a
// point at every step, as it does live.
func setupServing(reqs []request, clients int, pr *probe) (*daemon, *loadClient, error) {
	d, err := startDaemon(pr)
	if err != nil {
		return nil, nil, err
	}
	c := newLoadClient(d.URL, clients)
	var byOp [numOps][]request
	for _, r := range reqs {
		byOp[r.Op] = append(byOp[r.Op], r)
	}
	now := time.Now()
	steps := int(queryWindow / scrapeInterval)
	for s := 0; s <= steps; s++ {
		for _, rs := range byOp {
			if len(rs) == 0 {
				continue
			}
			r := rs[s%len(rs)]
			if err := c.do(r, r.Op == opQueryRange); err != nil {
				return d, c, fmt.Errorf("pre-fill request: %w", err)
			}
		}
		d.Scraper.ScrapeOnce(now.Add(time.Duration(s-steps) * scrapeInterval))
	}
	if err := fillLedger(d); err != nil {
		return d, c, err
	}
	warm := drive(c, reqs, clients, func(i int64) bool { return i < warmRequests }, time.Now(), nil, nil)
	for _, s := range warm {
		if !s.ok {
			return d, c, fmt.Errorf("warm-up request: %s", s.err)
		}
	}
	return d, c, nil
}

// fillLedger replicates the records the pre-fill wrote until the audit
// ledger's ring is full, so its size stays constant while a run adds
// records.
func fillLedger(d *daemon) error {
	recs := d.Ledger.List(audit.Filter{Limit: math.MaxInt32})
	if len(recs) == 0 {
		return fmt.Errorf("pre-fill left the audit ledger empty")
	}
	for i := 0; ; i++ {
		before := d.Ledger.Len()
		d.Ledger.Record(recs[i%len(recs)])
		if d.Ledger.Len() == before {
			return nil // ring full: the oldest record was overwritten
		}
	}
}

// closedLoop runs clients goroutines, each sending its next request
// only after the previous one completed, until dur has passed.
// Requests in flight at the deadline complete and are counted. With pr
// set, the trace seams alternate on and off every traceSlice and each
// sample records which kind of slice it was issued in.
func closedLoop(c *loadClient, reqs []request, clients int, dur time.Duration, pr *probe, marks *passMarks) (samples []sample, elapsed, untraced, traced time.Duration) {
	start := time.Now()
	deadline := start.Add(dur)
	var toggles []time.Time
	stopToggle := make(chan struct{})
	toggleDone := make(chan struct{})
	if pr != nil {
		go func() {
			defer close(toggleDone)
			t := time.NewTicker(traceSlice)
			defer t.Stop()
			for {
				select {
				case <-stopToggle:
					return
				case now := <-t.C:
					pr.on.Store(!pr.on.Load())
					toggles = append(toggles, now)
				}
			}
		}()
	} else {
		close(toggleDone)
	}
	samples = drive(c, reqs, clients, func(int64) bool { return time.Now().Before(deadline) }, start, pr, marks)
	close(stopToggle)
	<-toggleDone
	end := start
	for _, s := range samples {
		if e := start.Add(s.start + s.lat); e.After(end) {
			end = e
		}
	}
	elapsed = end.Sub(start)
	if pr != nil {
		pr.on.Store(false)
		// Slices alternate untraced, traced, untraced, ... from start.
		prev := start
		for i, t := range append(toggles, end) {
			if t.After(end) {
				t = end
			}
			if i%2 == 0 {
				untraced += t.Sub(prev)
			} else {
				traced += t.Sub(prev)
			}
			prev = t
		}
	}
	return samples, elapsed, untraced, traced
}

// drive is the closed-loop core: clients goroutines claim sequence
// numbers in order while more(next) holds, and request i is
// reqs[i mod len(reqs)]. With marks set, the host CPU is read as each
// pass over reqs begins.
func drive(c *loadClient, reqs []request, clients int, more func(int64) bool, start time.Time, pr *probe, marks *passMarks) []sample {
	var next atomic.Int64
	var mu sync.Mutex
	var all []sample
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for {
				i := next.Add(1) - 1
				if !more(i) {
					break
				}
				if i%int64(len(reqs)) == 0 {
					marks.mark(i / int64(len(reqs)))
				}
				r := reqs[i%int64(len(reqs))]
				s := sample{idx: i, op: r.Op, traced: pr != nil && pr.on.Load()}
				t0 := time.Now()
				err := c.do(r, false)
				s.lat = time.Since(t0)
				s.start = t0.Sub(start)
				s.ok = err == nil
				if err != nil {
					s.err = err.Error()
				}
				mine = append(mine, s)
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	sort.Slice(all, func(i, j int) bool { return all[i].idx < all[j].idx })
	return all
}

// registryTotals maps a metric family to the total of its series:
// value for counters and gauges, observation sum and count for
// histograms.
type registryTotals map[string]familyTotal

type familyTotal struct {
	value, sum float64
	count      uint64
}

func readRegistry(reg *telemetry.Registry) registryTotals {
	out := registryTotals{}
	for _, fam := range reg.Snapshot() {
		var t familyTotal
		for _, s := range fam.Series {
			if s.Value != nil {
				t.value += *s.Value
			}
			if s.Sum != nil && s.Count != nil {
				t.sum += *s.Sum
				t.count += *s.Count
			}
		}
		out[fam.Name] = t
	}
	return out
}

// delta returns after−before for one family's value, sum and count.
func delta(before, after registryTotals, name string) familyTotal {
	a, b := after[name], before[name]
	return familyTotal{value: a.value - b.value, sum: a.sum - b.sum, count: a.count - b.count}
}
