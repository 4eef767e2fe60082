package sched

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"caladrius/internal/core"
	"caladrius/internal/telemetry"
)

func testModel(t *testing.T) *core.TopologyModel {
	t.Helper()
	return &core.TopologyModel{}
}

func TestCalCacheLookupStore(t *testing.T) {
	c := NewCalCache(CalCacheOptions{})
	if _, ok := c.Lookup("wc", 1, time.Minute); ok {
		t.Fatal("empty cache returned a hit")
	}
	m := testModel(t)
	c.Store("wc", 1, time.Minute, m)
	got, ok := c.Lookup("wc", 1, time.Minute)
	if !ok || got != m {
		t.Fatalf("Lookup after Store = %v, %v; want stored model", got, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("Stats = %+v; want 1 hit, 1 miss, 1 entry", st)
	}
}

// TestCalCachePeekDoesNotCount: Peek answers like Lookup for missing,
// stale and usable entries but leaves every counter alone.
func TestCalCachePeekDoesNotCount(t *testing.T) {
	c := NewCalCache(CalCacheOptions{})
	if _, ok := c.Peek("wc", 1, time.Minute); ok {
		t.Fatal("Peek on empty cache hit")
	}
	m := testModel(t)
	c.Store("wc", 1, time.Minute, m)
	if _, ok := c.Peek("wc", 2, time.Minute); ok {
		t.Fatal("Peek served a superseded plan version")
	}
	if got, ok := c.Peek("wc", 1, time.Minute); !ok || got != m {
		t.Fatalf("Peek = %v, %v; want stored model", got, ok)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 || st.Stale != 0 {
		t.Fatalf("Stats after Peeks = %+v; want no counted lookups", st)
	}
}

// TestCalCacheKeyedValidation: an entry only serves the exact plan
// version and provider window it was calibrated against.
func TestCalCacheKeyedValidation(t *testing.T) {
	c := NewCalCache(CalCacheOptions{})
	c.Store("wc", 3, 10*time.Minute, testModel(t))
	cases := []struct {
		name    string
		version int
		window  time.Duration
		wantHit bool
	}{
		{"exact match", 3, 10 * time.Minute, true},
		{"older plan version", 2, 10 * time.Minute, false},
		{"newer plan version", 4, 10 * time.Minute, false},
		{"different window", 3, 5 * time.Minute, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, ok := c.Lookup("wc", tc.version, tc.window); ok != tc.wantHit {
				t.Fatalf("Lookup(v=%d, w=%s) hit = %v; want %v", tc.version, tc.window, ok, tc.wantHit)
			}
		})
	}
	if st := c.Stats(); st.Stale != 3 {
		t.Fatalf("Stats.Stale = %d; want 3 (superseded lookups)", st.Stale)
	}
}

func TestCalCacheTTL(t *testing.T) {
	now := time.Unix(1700000000, 0)
	clock := func() time.Time { return now }
	c := NewCalCache(CalCacheOptions{TTL: time.Minute, Now: clock})
	c.Store("wc", 1, time.Minute, testModel(t))
	if _, ok := c.Lookup("wc", 1, time.Minute); !ok {
		t.Fatal("fresh entry missed")
	}
	now = now.Add(59 * time.Second)
	if _, ok := c.Lookup("wc", 1, time.Minute); !ok {
		t.Fatal("entry expired before TTL")
	}
	now = now.Add(2 * time.Second)
	if _, ok := c.Lookup("wc", 1, time.Minute); ok {
		t.Fatal("entry served past TTL")
	}
	if st := c.Stats(); st.Stale != 1 {
		t.Fatalf("Stats.Stale = %d; want 1 (TTL expiry)", st.Stale)
	}
}

func TestCalCacheZeroTTLNeverExpires(t *testing.T) {
	now := time.Unix(1700000000, 0)
	c := NewCalCache(CalCacheOptions{Now: func() time.Time { return now }})
	c.Store("wc", 1, time.Minute, testModel(t))
	now = now.Add(1000 * time.Hour)
	if _, ok := c.Lookup("wc", 1, time.Minute); !ok {
		t.Fatal("TTL-less entry expired")
	}
}

// TestCalCacheInvalidationScope: invalidating one topology (the
// tracker-update / packing-plan-change path) evicts exactly that
// topology's entry and nothing else.
func TestCalCacheInvalidationScope(t *testing.T) {
	cases := []struct {
		name       string
		stored     []string
		invalidate string
		wantGone   []string
		wantKept   []string
		wantHit    bool
	}{
		{
			name:       "tracker update evicts only the updated topology",
			stored:     []string{"wordcount", "adclicks", "fraud"},
			invalidate: "adclicks",
			wantGone:   []string{"adclicks"},
			wantKept:   []string{"wordcount", "fraud"},
			wantHit:    true,
		},
		{
			name:       "packing-plan change on one topology leaves siblings warm",
			stored:     []string{"wordcount", "adclicks"},
			invalidate: "wordcount",
			wantGone:   []string{"wordcount"},
			wantKept:   []string{"adclicks"},
			wantHit:    true,
		},
		{
			name:       "invalidating an uncached topology is a no-op",
			stored:     []string{"wordcount"},
			invalidate: "ghost",
			wantGone:   nil,
			wantKept:   []string{"wordcount"},
			wantHit:    false,
		},
		{
			name:       "invalidating an empty cache is a no-op",
			stored:     nil,
			invalidate: "anything",
			wantGone:   nil,
			wantKept:   nil,
			wantHit:    false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCalCache(CalCacheOptions{})
			for _, topo := range tc.stored {
				c.Store(topo, 1, time.Minute, testModel(t))
			}
			if got := c.Invalidate(tc.invalidate); got != tc.wantHit {
				t.Fatalf("Invalidate(%q) = %v; want %v", tc.invalidate, got, tc.wantHit)
			}
			for _, topo := range tc.wantGone {
				if _, ok := c.Lookup(topo, 1, time.Minute); ok {
					t.Fatalf("topology %q still cached after invalidation", topo)
				}
			}
			for _, topo := range tc.wantKept {
				if _, ok := c.Lookup(topo, 1, time.Minute); !ok {
					t.Fatalf("topology %q wrongly evicted", topo)
				}
			}
			if got, want := c.Len(), len(tc.wantKept); got != want {
				t.Fatalf("Len = %d; want %d", got, want)
			}
		})
	}
}

// TestCalCacheConcurrentInvalidateLookup races lookups, stores and
// invalidations across topologies; run under -race this is the
// invalidation race coverage the scheduler contract requires.
func TestCalCacheConcurrentInvalidateLookup(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := NewCalCache(CalCacheOptions{TTL: time.Hour, Registry: reg})
	topos := make([]string, 8)
	for i := range topos {
		topos[i] = fmt.Sprintf("topo%d", i)
		c.Store(topos[i], 1, time.Minute, &core.TopologyModel{})
	}
	// Bounded iterations rather than a wall-clock stop signal: the
	// interleaving coverage comes from goroutine count, not run time,
	// and a fixed workload cannot flake on a slow or loaded machine.
	const churnIters = 3000
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < churnIters; i++ {
				topo := topos[(g+i)%len(topos)]
				switch i % 3 {
				case 0:
					c.Lookup(topo, 1, time.Minute)
				case 1:
					c.Invalidate(topo)
				case 2:
					c.Store(topo, 1, time.Minute, &core.TopologyModel{})
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Entries < 0 || st.Entries > len(topos) {
		t.Fatalf("Entries = %d out of range [0, %d]", st.Entries, len(topos))
	}
	if st.Hits+st.Misses+st.Stale == 0 {
		t.Fatal("no lookups recorded during churn")
	}
}

func TestCalCacheStoreNilModelIgnored(t *testing.T) {
	c := NewCalCache(CalCacheOptions{})
	c.Store("wc", 1, time.Minute, nil)
	if c.Len() != 0 {
		t.Fatal("nil model was cached")
	}
}

// BenchmarkCalCacheHit asserts the warm lookup path is 0 allocs/op —
// the property that makes cache-served predicts cheap.
func BenchmarkCalCacheHit(b *testing.B) {
	c := NewCalCache(CalCacheOptions{TTL: time.Hour, Registry: telemetry.NewRegistry()})
	c.Store("wordcount", 7, 10*time.Minute, &core.TopologyModel{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Lookup("wordcount", 7, 10*time.Minute); !ok {
			b.Fatal("unexpected miss")
		}
	}
	b.StopTimer()
	allocs := testing.AllocsPerRun(1000, func() {
		c.Lookup("wordcount", 7, 10*time.Minute)
	})
	if allocs != 0 {
		b.Fatalf("cache-hit lookup = %v allocs/op; want 0", allocs)
	}
}
