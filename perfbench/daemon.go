package main

import (
	"errors"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"caladrius/internal/api"
	"caladrius/internal/audit"
	"caladrius/internal/config"
	"caladrius/internal/heron"
	"caladrius/internal/metrics"
	"caladrius/internal/sched"
	"caladrius/internal/telemetry"
	"caladrius/internal/topology"
	"caladrius/internal/tracker"
	"caladrius/internal/tsdb"
	"caladrius/internal/usage"
	"caladrius/internal/workload"
)

// Demo deployment the serving workloads run against: the word-count
// topology of cmd/caladrius at its default parallelisms. Its simulated
// history steps the source rate from below to above the saturation
// point halfway through, as the API tests' fixtures do, so calibration
// observes both regimes and finds a finite saturation point. (Under a
// constant rate below saturation it finds none, and the model
// endpoints answer 200 with an empty body; the validator counts that
// as a failure.)
const (
	demoTopology    = "word-count"
	demoLowRateTPM  = 20e6
	demoHighRateTPM = 45e6
	demoSplitterP   = 3
	demoCounterP    = 4
	warmMinutes     = 10
)

// daemon is the in-process serving stack under test. It is assembled
// by one call, startDaemon, with the defaults of cmd/caladrius (model
// scheduler, calibration cache, audit ledger, usage accounting,
// self-monitoring history and SLO rules); the continuous profiler and
// the incident recorder stay off, as in the soak daemon of
// internal/bench, because their periodic captures would land in the
// measured window at random.
type daemon struct {
	URL       string
	Registry  *telemetry.Registry
	History   *tsdb.DB
	Scraper   *telemetry.Scraper
	Ledger    *audit.Ledger
	Scheduler *sched.Scheduler

	server *http.Server
	done   chan struct{}
}

// startDaemon wires and starts the daemon on a loopback port. A non-nil
// probe installs the trace seams: an http.Handler wrapper timing every
// API call and a metrics.Provider decorator timing every fetch; nil
// assembles the daemon with no wrapper at all, which is how end-to-end
// metrics are measured. The caller owns the scrape loop and must Close
// the daemon.
func startDaemon(pr *probe) (*daemon, error) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	reg := telemetry.NewRegistry()

	warm := time.Duration(warmMinutes) * time.Minute
	sim, err := heron.NewWordCount(heron.WordCountOptions{
		SplitterP: demoSplitterP,
		CounterP:  demoCounterP,
		Schedule:  workload.StepRate(demoLowRateTPM/60, demoHighRateTPM/60, warm/2),
		Metrics:   reg,
	})
	if err != nil {
		return nil, err
	}
	if err := sim.Run(warm); err != nil {
		return nil, err
	}
	asOf := sim.Start().Add(warm)
	frozen := func() time.Time { return asOf }

	top, err := heron.WordCountTopology(8, demoSplitterP, demoCounterP)
	if err != nil {
		return nil, err
	}
	plan, err := topology.RoundRobinPack(top, 2)
	if err != nil {
		return nil, err
	}
	tr := tracker.New(frozen)
	if err := tr.Register(top, plan); err != nil {
		return nil, err
	}

	cfg := config.Default()
	cfg.CalibrationLookback = warm
	tsdbProvider, err := metrics.NewTSDBProvider(sim.DB(), cfg.MetricsWindow)
	if err != nil {
		return nil, err
	}
	var provider metrics.Provider = metrics.NewRetryingProvider(tsdbProvider, metrics.RetryConfig{
		Retries: cfg.FetchRetries, Backoff: cfg.FetchBackoff, Timeout: cfg.FetchTimeout,
	}, reg)
	if pr != nil {
		provider = &timedProvider{inner: provider, p: pr}
	}

	history := tsdb.New(queryWindow)
	scraper := telemetry.NewScraper(reg, history, telemetry.ScrapeOptions{Interval: scrapeInterval})
	scraper.AddCollector(telemetry.RegisterRuntime(reg, time.Now(), time.Now))
	ledger, err := audit.NewLedger(audit.Options{
		Provider:      provider,
		History:       history,
		Registry:      reg,
		Now:           frozen,
		SeriesNow:     time.Now,
		MetricsWindow: cfg.MetricsWindow,
	})
	if err != nil {
		return nil, err
	}
	scraper.AddCollector(ledger.Collector())
	rules := append(telemetry.DefaultSLORules(), telemetry.ModelAccuracyRules(0.25, 30*time.Minute, 0)...)
	slo, err := telemetry.NewSLO(history, reg, nil, rules)
	if err != nil {
		return nil, err
	}
	scraper.AfterScrape(func(time.Time) { slo.Evaluate() })

	acct := usage.New(usage.Options{Capacity: cfg.UsageTopK, Window: cfg.UsageWindow, Registry: reg})
	ticks := reg.Counter("caladrius_sim_ticks_total", telemetry.Labels{"topology": top.Name()})
	scheduler := sched.New(sched.Options{
		Workers:    cfg.SchedWorkers,
		QueueDepth: cfg.SchedQueueDepth,
		Registry:   reg,
	})
	svc, err := api.NewService(cfg, tr, provider, api.Options{
		Logger:      logger,
		Now:         frozen,
		Telemetry:   reg,
		History:     history,
		SLO:         slo,
		Audit:       ledger,
		Usage:       acct,
		SimTicks:    func() uint64 { return uint64(ticks.Value()) },
		Scheduler:   scheduler,
		CalCacheTTL: cfg.CalCacheTTL,
	})
	if err != nil {
		scheduler.Close()
		return nil, err
	}

	var handler http.Handler = svc.Handler()
	if pr != nil {
		handler = &timedHandler{next: handler, p: pr}
	}
	mux := http.NewServeMux()
	mux.Handle("/api/", handler)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		scheduler.Close()
		return nil, err
	}
	d := &daemon{
		URL:       "http://" + ln.Addr().String(),
		Registry:  reg,
		History:   history,
		Scraper:   scraper,
		Ledger:    ledger,
		Scheduler: scheduler,
		server:    &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		done:      make(chan struct{}),
	}
	go func() {
		defer close(d.done)
		if err := d.server.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("listener failed", "err", err)
		}
	}()
	return d, nil
}

// Close stops the listener, its connections and the scheduler
// workers, and returns once the serving goroutine has exited.
func (d *daemon) Close() error {
	err := d.server.Close()
	<-d.done
	d.Scheduler.Close()
	return err
}

// probe accumulates the trace seams' observations. Recording happens
// only while on is set, so one daemon can alternate traced and
// untraced slices.
type probe struct {
	on atomic.Bool

	serverNanos [numOps]atomic.Int64
	serverCalls [numOps]atomic.Int64
	respBytes   atomic.Int64

	providerCalls atomic.Int64
	providerNanos atomic.Int64
}

// timedHandler is the http.Handler seam: it times each API call by
// operation and counts response bytes.
type timedHandler struct {
	next http.Handler
	p    *probe
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.p.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	cw := &countingWriter{ResponseWriter: w}
	start := time.Now()
	h.next.ServeHTTP(cw, r)
	if op := opOfPath(r.URL.Path); op >= 0 {
		h.p.serverNanos[op].Add(int64(time.Since(start)))
		h.p.serverCalls[op].Add(1)
	}
	h.p.respBytes.Add(cw.n)
}

// countingWriter counts the body bytes a handler writes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += int64(n)
	return n, err
}

// timedProvider is the metrics.Provider seam: it counts and times every
// fetch the service (and the audit ledger) makes.
type timedProvider struct {
	inner metrics.Provider
	p     *probe
}

func (t *timedProvider) observe(start time.Time) {
	if t.p.on.Load() {
		t.p.providerCalls.Add(1)
		t.p.providerNanos.Add(int64(time.Since(start)))
	}
}

func (t *timedProvider) ComponentWindows(topo, component string, start, end time.Time) ([]metrics.Window, error) {
	defer t.observe(time.Now())
	return t.inner.ComponentWindows(topo, component, start, end)
}

func (t *timedProvider) InstanceWindows(topo, component string, index int, start, end time.Time) ([]metrics.Window, error) {
	defer t.observe(time.Now())
	return t.inner.InstanceWindows(topo, component, index, start, end)
}

func (t *timedProvider) SourceRate(topo string, spouts []string, start, end time.Time) ([]tsdb.Point, error) {
	defer t.observe(time.Now())
	return t.inner.SourceRate(topo, spouts, start, end)
}

func (t *timedProvider) TopologyBackpressureMs(topo string, start, end time.Time) ([]tsdb.Point, error) {
	defer t.observe(time.Now())
	return t.inner.TopologyBackpressureMs(topo, start, end)
}

func (t *timedProvider) StreamEmitTotals(topo, component string, start, end time.Time) (map[string]float64, error) {
	defer t.observe(time.Now())
	return t.inner.StreamEmitTotals(topo, component, start, end)
}
