package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"caladrius/internal/experiments"
)

// figureTable is one of the result tables cmd/figures regenerates.
type figureTable struct {
	name string
	run  func(experiments.SweepOptions) (experiments.Table, error)
}

func noSweep(f func() (experiments.Table, error)) func(experiments.SweepOptions) (experiments.Table, error) {
	return func(experiments.SweepOptions) (experiments.Table, error) { return f() }
}

// figureTables lists all 15 tables of results/, built exactly as
// cmd/figures builds them with its default settings.
var figureTables = []figureTable{
	{"fig04", experiments.Fig04InstanceThroughput},
	{"fig05", experiments.Fig05IORatio},
	{"fig06", experiments.Fig06BackpressureTime},
	{"fig07", experiments.Fig07ComponentModel},
	{"fig08", experiments.Fig08ComponentValidation},
	{"fig09", experiments.Fig09CounterModel},
	{"fig10", experiments.Fig10CriticalPath},
	{"fig11", experiments.Fig11CPULoad},
	{"fig12", experiments.Fig12CPUValidation},
	{"traffic", noSweep(experiments.TrafficForecast)},
	{"dhalion", noSweep(experiments.DhalionVsCaladrius)},
	{"ablation-watermarks", experiments.AblationWatermarkGap},
	{"ablation-attribution", experiments.AblationCalibrationAttribution},
	{"ablation-noise", experiments.AblationNoiseVsError},
	{"ablation-schedulers", noSweep(experiments.AblationSchedulerPlans)},
}

// defaultSweep is cmd/figures' default sweep at the given worker count;
// the tables are byte-identical at any worker count.
func defaultSweep(workers int) experiments.SweepOptions {
	sweep := experiments.DefaultSweep
	sweep.Parallelism = workers
	return sweep
}

// resultsDir holds the reference tables, relative to the repository
// root the benchmark runs from.
const resultsDir = "results"

// loadReferences reads results/<table>.csv for every table.
func loadReferences(dir string) (map[string][]byte, error) {
	refs := make(map[string][]byte, len(figureTables))
	for _, t := range figureTables {
		b, err := os.ReadFile(filepath.Join(dir, t.name+".csv"))
		if err != nil {
			return nil, fmt.Errorf("reference table: %w", err)
		}
		refs[t.name] = b
	}
	return refs, nil
}

// checkTable reports whether a regenerated table's CSV is byte for byte
// the reference, naming the first differing byte when it is not.
func checkTable(name string, got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	return fmt.Errorf("%s: regenerated CSV differs from %s/%s.csv at byte %d (got %d bytes, want %d)",
		name, resultsDir, name, i, len(got), len(want))
}

// figureSample is one table regeneration.
type figureSample struct {
	table  int
	pass   int
	traced bool
	ok     bool
	lat    time.Duration
	err    string
}

// figuresRun is everything one figures run measured.
type figuresRun struct {
	setups  []time.Duration
	samples []figureSample
	passes  []time.Duration // wall time per pass
	steals  []float64       // host steal per pass, percent
	traced  []bool          // whether each pass was traced
	alloc   []uint64        // bytes allocated per traced pass
	elapsed time.Duration
	cpu     time.Duration
	steal   float64 // host steal during the measured window, percent
	gcs     uint32
	pauses  time.Duration
}

// Figures-workload shape.
const (
	// figureSetupTable is regenerated once per set-up round, cold, so
	// the simulator and calibration code paths are paged in and the heap
	// has grown to its working size before timing.
	figureSetupTable = "fig05"
	// minPasses is the fewest full passes a figures run measures.
	minPasses = 3
)

// runFigures regenerates all tables pass after pass, in a seeded order,
// with sweep parallelism workers, for about dur (a pass in progress at
// the deadline finishes; a new pass starts only if the median pass so
// far still fits). With traced set, every other pass records its
// allocations.
func runFigures(seed int64, workers int, dur time.Duration, traced bool, rounds int) (*figuresRun, error) {
	res := &figuresRun{}
	sweep := defaultSweep(workers)
	var refs map[string][]byte
	for round := 0; round < rounds; round++ {
		began := time.Now()
		var err error
		if refs, err = loadReferences(resultsDir); err != nil {
			return nil, err
		}
		for _, t := range figureTables {
			if t.name != figureSetupTable {
				continue
			}
			tbl, err := t.run(sweep)
			if err != nil {
				return nil, fmt.Errorf("setup: %s: %w", t.name, err)
			}
			if err := checkTable(t.name, []byte(tbl.CSV()), refs[t.name]); err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
		}
		res.setups = append(res.setups, time.Since(began))
	}

	rng := rand.New(rand.NewSource(seed))
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	host0 := readHostCPU()
	start := time.Now()
	for pass := 0; ; pass++ {
		if pass >= minPasses && time.Since(start).Seconds()+median(durationSeconds(res.passes)) > dur.Seconds() {
			break
		}
		tracedPass := traced && pass%2 == 1
		var before runtime.MemStats
		if tracedPass {
			runtime.ReadMemStats(&before)
		}
		passHost, passStart := readHostCPU(), time.Now()
		for _, i := range rng.Perm(len(figureTables)) {
			t := figureTables[i]
			t0 := time.Now()
			tbl, err := t.run(sweep)
			s := figureSample{table: i, pass: pass, traced: tracedPass, lat: time.Since(t0)}
			if err == nil {
				err = checkTable(t.name, []byte(tbl.CSV()), refs[t.name])
			}
			s.ok = err == nil
			if err != nil {
				s.err = err.Error()
			}
			res.samples = append(res.samples, s)
		}
		res.passes = append(res.passes, time.Since(passStart))
		res.steals = append(res.steals, stealPct(passHost, readHostCPU()))
		res.traced = append(res.traced, tracedPass)
		if tracedPass {
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			res.alloc = append(res.alloc, after.TotalAlloc-before.TotalAlloc)
		}
	}
	res.elapsed = time.Since(start)
	res.cpu = cpuTime() - cpu0
	res.steal = stealPct(host0, readHostCPU())
	runtime.ReadMemStats(&ms1)
	res.gcs = ms1.NumGC - ms0.NumGC
	res.pauses = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	return res, nil
}
