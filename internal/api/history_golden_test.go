package api

import (
	"bytes"
	"flag"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"caladrius/internal/tsdb"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenPanels are the dashboard's query_range panels as the benchmark
// issues them (perfbench/requests.go), pinned to a fixed end time.
var goldenPanels = []string{
	"metric=caladrius_http_requests_total:rate&window=5m&step=10s&agg=mean&merge=sum",
	"metric=caladrius_http_request_duration_seconds:p95&route=/api/v1/audit&window=5m&step=10s&agg=max&merge=max",
	"metric=caladrius_http_request_duration_seconds:p50&route=/api/v1/query_range&window=5m&step=30s&agg=mean&merge=max",
	"metric=caladrius_go_heap_alloc_bytes&window=5m&step=15s&agg=max",
	"metric=caladrius_tenant_requests_total&tenant=dashboard&window=5m&step=10s&agg=max&merge=sum",
	"metric=caladrius_sched_runs_total:rate&window=5m&step=5s&agg=mean&merge=sum",
	"metric=caladrius_http_requests_total&window=5m&step=1m&agg=last&merge=sum",
}

// goldenEnd is the fixed end of every golden panel's window.
var goldenEnd = time.Date(2026, 8, 5, 12, 6, 0, 0, time.UTC)

// goldenHistory builds a deterministic self-monitoring store shaped like
// the scraper's: several label sets per metric, 5s scrapes with
// sub-second jitter over the last seven minutes, a few out-of-order
// writes, and non-finite values in the quantile series.
func goldenHistory() *tsdb.DB {
	db := tsdb.New(time.Hour)
	r := rand.New(rand.NewSource(7))
	routes := []string{"/api/v1/audit", "/api/v1/query_range", "/api/v1/usage", "/api/v1/health"}
	type spec struct {
		metric string
		labels []tsdb.Labels
		scale  float64
		nonFin bool // occasionally write NaN/±Inf
	}
	var specs []spec
	var reqs, p95, p50 []tsdb.Labels
	for _, route := range routes {
		for _, code := range []string{"200", "404"} {
			reqs = append(reqs, tsdb.Labels{"route": route, "code": code})
		}
		p95 = append(p95, tsdb.Labels{"route": route})
		p50 = append(p50, tsdb.Labels{"route": route})
	}
	specs = append(specs,
		spec{"caladrius_http_requests_total:rate", reqs, 50, false},
		spec{"caladrius_http_requests_total", reqs, 1e4, false},
		spec{"caladrius_http_request_duration_seconds:p95", p95, 0.01, true},
		spec{"caladrius_http_request_duration_seconds:p50", p50, 0.003, true},
		spec{"caladrius_go_heap_alloc_bytes", []tsdb.Labels{nil}, 64 << 20, false},
		spec{"caladrius_tenant_requests_total", []tsdb.Labels{
			{"tenant": "dashboard", "topology": "word-count"},
			{"tenant": "dashboard", "topology": "-"},
			{"tenant": "planner", "topology": "word-count"},
		}, 500, false},
		spec{"caladrius_sched_runs_total:rate", []tsdb.Labels{
			{"priority": "interactive"}, {"priority": "batch"},
		}, 20, false},
	)
	start := goldenEnd.Add(-7 * time.Minute)
	for _, sp := range specs {
		for _, l := range sp.labels {
			h := db.Handle(sp.metric, l)
			var late []int
			for i := 0; i < 84; i++ {
				if r.Intn(10) == 0 {
					late = append(late, i) // written after the rest: out of order
					continue
				}
				h.Append(goldenAt(start, i, r), goldenValue(sp.scale, sp.nonFin, r))
			}
			for _, i := range late {
				h.Append(goldenAt(start, i, r), goldenValue(sp.scale, sp.nonFin, r))
			}
		}
	}
	return db
}

func goldenAt(start time.Time, i int, r *rand.Rand) time.Time {
	return start.Add(time.Duration(i)*5*time.Second + time.Duration(r.Int63n(int64(time.Second))))
}

func goldenValue(scale float64, nonFin bool, r *rand.Rand) float64 {
	if nonFin {
		switch r.Intn(40) {
		case 0:
			return math.NaN()
		case 1:
			return math.Inf(1)
		case 2:
			return math.Inf(-1)
		}
	}
	return r.Float64() * scale
}

// TestQueryRangeGolden pins the exact response bytes of every
// dashboard panel over a fixed store. Regenerate with
// `go test ./internal/api -run QueryRangeGolden -update` only after an
// intentional change to the response, and review the diff.
func TestQueryRangeGolden(t *testing.T) {
	s := &Service{history: goldenHistory()}
	var got bytes.Buffer
	for i, panel := range goldenPanels {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, "/api/v1/query_range?"+panel+"&end="+goldenEnd.Format(time.RFC3339), nil)
		s.handleQueryRange(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("panel %d: status %d: %s", i, rec.Code, rec.Body)
		}
		if !bytes.Contains(rec.Body.Bytes(), []byte(`"v":`)) {
			t.Fatalf("panel %d: no points: %s", i, rec.Body)
		}
		got.Write(rec.Body.Bytes())
	}
	path := filepath.Join("testdata", "query_range_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d response lines, golden has %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Errorf("panel %d differs from golden:\n got %s\nwant %s", i, gotLines[i], wantLines[i])
		}
	}
}
