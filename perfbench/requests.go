package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Operations the serving workloads issue, one per API route.
const (
	opPerformance = iota // POST /api/v1/model/topology/{t}/performance?sync=true
	opSuggest            // POST /api/v1/model/topology/{t}/suggest?sync=true
	opCalibrate          // POST /api/v1/model/topology/{t}/calibrate?sync=true
	opQueryRange         // GET  /api/v1/query_range
	opAudit              // GET  /api/v1/audit?limit=50
	opUsage              // GET  /api/v1/usage
	numOps
)

var opNames = [numOps]string{"performance", "suggest", "calibrate", "query_range", "audit", "usage"}

// opOfPath maps a request path to its operation, or -1.
func opOfPath(path string) int {
	switch path {
	case "/api/v1/query_range":
		return opQueryRange
	case "/api/v1/audit":
		return opAudit
	case "/api/v1/usage":
		return opUsage
	}
	rest, ok := strings.CutPrefix(path, "/api/v1/model/topology/")
	if !ok {
		return -1
	}
	_, action, _ := strings.Cut(rest, "/")
	switch action {
	case "performance":
		return opPerformance
	case "suggest":
		return opSuggest
	case "calibrate":
		return opCalibrate
	}
	return -1
}

// request is one generated API call. The sequence of requests is the
// only input the daemon receives from the benchmark.
type request struct {
	Op     int
	Method string
	Path   string // path plus query string
	Body   string
	Tenant string
}

// ringLen is the length of a workload's generated request sequence;
// clients cycle through it, and one pass over it is one sweep. It is
// the fewest samples whose exact p99 has 10 beyond it, so a run holds
// many short passes to choose quiet ones from (see quietPasses).
const ringLen = 1000

// tenants the generated requests are attributed to.
var tenants = []string{"planner", "autoscaler", "capacity", "dashboard"}

// Grids the model-whatif bodies draw from. 13 rates × 5 splitter × 7
// counter parallelisms give 455 distinct performance bodies, so two
// concurrent clients rarely send identical requests that the scheduler
// would coalesce.
var (
	rateGridTPM = []float64{12e6, 16e6, 20e6, 24e6, 28e6, 32e6, 36e6, 40e6, 44e6, 48e6, 52e6, 56e6, 60e6}
	splitterPs  = []int{2, 3, 4, 5, 6}
	counterPs   = []int{2, 3, 4, 5, 6, 7, 8}
)

// rangeQueries are the dashboard's query_range panels over the
// self-monitoring history. Every one selects series that exist once the
// warm-up has touched each route, so a non-empty answer is required.
var rangeQueries = []string{
	"metric=caladrius_http_requests_total:rate&window=5m&step=10s&agg=mean&merge=sum",
	"metric=caladrius_http_request_duration_seconds:p95&route=/api/v1/audit&window=5m&step=10s&agg=max&merge=max",
	"metric=caladrius_http_request_duration_seconds:p50&route=/api/v1/query_range&window=5m&step=30s&agg=mean&merge=max",
	"metric=caladrius_go_heap_alloc_bytes&window=5m&step=15s&agg=max",
	"metric=caladrius_tenant_requests_total&tenant=dashboard&window=5m&step=10s&agg=max&merge=sum",
	"metric=caladrius_sched_runs_total:rate&window=5m&step=5s&agg=mean&merge=sum",
	"metric=caladrius_http_requests_total&window=5m&step=1m&agg=last&merge=sum",
}

// generate builds a workload's request sequence from the seed. The
// operation shares are exact (every sequence holds the same multiset of
// operations, so every pass over it does the same kind of work); the
// seed draws the bodies and tenants and shuffles the order. The same
// (workload, seed) pair always yields the same sequence.
func generate(workload string, seed int64) ([]request, error) {
	rng := rand.New(rand.NewSource(seed))
	var out []request
	add := func(percent int, gen func(i int) request) {
		for i := 0; i < ringLen*percent/100; i++ {
			out = append(out, gen(i))
		}
	}
	pick := func(xs []float64) float64 { return xs[rng.Intn(len(xs))] }
	pickInt := func(xs []int) int { return xs[rng.Intn(len(xs))] }
	switch workload {
	case "model-whatif":
		add(55, func(int) request {
			return performance(fmt.Sprintf(`{"source_rate_tpm":%g,"parallelism":{"splitter":%d,"counter":%d}}`,
				pick(rateGridTPM), pickInt(splitterPs), pickInt(counterPs)))
		})
		add(20, func(int) request { return performance(`{}`) })
		add(20, func(int) request {
			return modelCall(opSuggest, "suggest", fmt.Sprintf(`{"source_rate_tpm":%g}`, pick(rateGridTPM)))
		})
		add(5, func(int) request { return modelCall(opCalibrate, "calibrate", `{}`) })
	case "dashboard":
		add(60, func(i int) request {
			return request{Op: opQueryRange, Method: "GET", Path: "/api/v1/query_range?" + rangeQueries[i%len(rangeQueries)]}
		})
		add(20, func(int) request { return request{Op: opAudit, Method: "GET", Path: "/api/v1/audit?limit=50"} })
		add(10, func(int) request { return request{Op: opUsage, Method: "GET", Path: "/api/v1/usage"} })
		add(10, func(int) request { return performance(`{}`) })
	default:
		return nil, fmt.Errorf("no request generator for workload %q", workload)
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	for i := range out {
		out[i].Tenant = tenants[i%len(tenants)]
	}
	rng.Shuffle(len(out), func(i, j int) { out[i].Tenant, out[j].Tenant = out[j].Tenant, out[i].Tenant })
	return out, nil
}

func performance(body string) request { return modelCall(opPerformance, "performance", body) }

func modelCall(op int, action, body string) request {
	return request{Op: op, Method: "POST", Path: "/api/v1/model/topology/" + demoTopology + "/" + action + "?sync=true", Body: body}
}

// Minimal response shapes. They are declared here, not imported from
// the API package, so a change to the program's types cannot silently
// change what the benchmark accepts.
type predictionBody struct {
	SourceRate       *float64          `json:"source_rate_tpm"`
	Paths            []json.RawMessage `json:"paths"`
	OutputRate       *float64          `json:"output_rate_tpm"`
	SinkThroughput   *float64          `json:"sink_throughput_tpm"`
	SaturationSource *float64          `json:"saturation_source_tpm"`
	TotalCPU         *float64          `json:"total_cpu_cores"`
}

type modelBody struct {
	Topology         string          `json:"topology"`
	EvaluatedRateTPM *float64        `json:"evaluated_rate_tpm"`
	Parallelism      map[string]int  `json:"parallelism"`
	Prediction       *predictionBody `json:"prediction"`
	Calibrated       *bool           `json:"calibrated"`
}

type rangeBody struct {
	Metric string `json:"metric"`
	Points []struct {
		V *float64 `json:"v"`
	} `json:"points"`
}

type auditBody struct {
	Records []struct {
		ID       int64  `json:"id"`
		Topology string `json:"topology"`
		Model    string `json:"model"`
	} `json:"records"`
	Count int               `json:"count"`
	Stats []json.RawMessage `json:"stats"`
}

type usageBody struct {
	Capacity   int `json:"capacity"`
	Principals int `json:"principals"`
	Top        []struct {
		Tenant   string `json:"tenant"`
		Topology string `json:"topology"`
	} `json:"top"`
}

// validate checks the minimal invariants of a 2xx body for op.
func validate(op int, req request, body []byte) error {
	switch op {
	case opPerformance, opSuggest:
		var m modelBody
		if err := json.Unmarshal(body, &m); err != nil {
			return fmt.Errorf("%s: decode: %w", opNames[op], err)
		}
		if m.Topology != demoTopology {
			return fmt.Errorf("%s: topology %q, want %q", opNames[op], m.Topology, demoTopology)
		}
		if m.Prediction == nil || len(m.Prediction.Paths) == 0 {
			return fmt.Errorf("%s: no prediction paths", opNames[op])
		}
		p := m.Prediction
		for name, v := range map[string]*float64{
			"evaluated_rate_tpm": m.EvaluatedRateTPM, "source_rate_tpm": p.SourceRate,
			"output_rate_tpm": p.OutputRate, "sink_throughput_tpm": p.SinkThroughput,
			"saturation_source_tpm": p.SaturationSource, "total_cpu_cores": p.TotalCPU,
		} {
			if v == nil || math.IsNaN(*v) || math.IsInf(*v, 0) || *v < 0 {
				return fmt.Errorf("%s: %s missing or not a finite non-negative number", opNames[op], name)
			}
		}
		if op == opSuggest {
			if len(m.Parallelism) == 0 {
				return fmt.Errorf("suggest: empty parallelism")
			}
			for c, n := range m.Parallelism {
				if n <= 0 {
					return fmt.Errorf("suggest: parallelism %s=%d", c, n)
				}
			}
		}
	case opCalibrate:
		var m modelBody
		if err := json.Unmarshal(body, &m); err != nil {
			return fmt.Errorf("calibrate: decode: %w", err)
		}
		if m.Topology != demoTopology || m.Calibrated == nil || !*m.Calibrated {
			return fmt.Errorf("calibrate: body does not confirm calibration of %q", demoTopology)
		}
	case opQueryRange:
		var m rangeBody
		if err := json.Unmarshal(body, &m); err != nil {
			return fmt.Errorf("query_range: decode: %w", err)
		}
		if want := queryMetric(req.Path); m.Metric != want {
			return fmt.Errorf("query_range: metric %q, want %q", m.Metric, want)
		}
		if len(m.Points) == 0 {
			return fmt.Errorf("query_range: empty series for %s", req.Path)
		}
		for _, pt := range m.Points {
			if pt.V == nil || math.IsNaN(*pt.V) || math.IsInf(*pt.V, 0) {
				return fmt.Errorf("query_range: point without a finite value")
			}
		}
	case opAudit:
		var m auditBody
		if err := json.Unmarshal(body, &m); err != nil {
			return fmt.Errorf("audit: decode: %w", err)
		}
		if m.Records == nil || m.Stats == nil || m.Count != len(m.Records) || len(m.Records) > 50 {
			return fmt.Errorf("audit: malformed list (count %d, %d records)", m.Count, len(m.Records))
		}
		for _, r := range m.Records {
			if r.ID <= 0 || r.Topology == "" || r.Model == "" {
				return fmt.Errorf("audit: malformed record %+v", r)
			}
		}
	case opUsage:
		var m usageBody
		if err := json.Unmarshal(body, &m); err != nil {
			return fmt.Errorf("usage: decode: %w", err)
		}
		if m.Top == nil || m.Capacity <= 0 || m.Principals < 0 {
			return fmt.Errorf("usage: malformed list")
		}
		for _, p := range m.Top {
			if p.Tenant == "" || p.Topology == "" {
				return fmt.Errorf("usage: principal without tenant or topology")
			}
		}
	default:
		return fmt.Errorf("unknown operation %d", op)
	}
	return nil
}

// queryMetric extracts the metric parameter of a query_range path.
func queryMetric(path string) string {
	_, q, _ := strings.Cut(path, "?")
	for _, kv := range strings.Split(q, "&") {
		if v, ok := strings.CutPrefix(kv, "metric="); ok {
			return v
		}
	}
	return ""
}
