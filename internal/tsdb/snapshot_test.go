package tsdb

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func populated(t *testing.T) *DB {
	t.Helper()
	db := New(0)
	for i := 0; i < 30; i++ {
		db.Append("execute-count", Labels{"component": "splitter", "instance": "0"}, minuteAt(i), float64(i*10))
		db.Append("execute-count", Labels{"component": "splitter", "instance": "1"}, minuteAt(i), float64(i*11))
		db.Append("cpu-load", Labels{"component": "counter"}, minuteAt(i), 0.5+float64(i)/100)
	}
	return db
}

func TestSnapshotRoundTrip(t *testing.T) {
	db := populated(t)
	var buf bytes.Buffer
	if err := db.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.TotalPoints() != db.TotalPoints() {
		t.Fatalf("points = %d, want %d", back.TotalPoints(), db.TotalPoints())
	}
	orig, err := db.Query("execute-count", nil, minuteAt(0), minuteAt(100))
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.Query("execute-count", nil, minuteAt(0), minuteAt(100))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, got) {
		t.Error("round-tripped series differ")
	}
	if !reflect.DeepEqual(db.Metrics(), back.Metrics()) {
		t.Errorf("metrics = %v vs %v", back.Metrics(), db.Metrics())
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	db := populated(t)
	var a, b bytes.Buffer
	if err := db.WriteSnapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := db.WriteSnapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("snapshots of the same DB differ")
	}
}

func TestSnapshotPreservesRetention(t *testing.T) {
	db := New(42 * time.Minute)
	db.Append("m", nil, minuteAt(0), 1)
	var buf bytes.Buffer
	if err := db.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.retention != 42*time.Minute {
		t.Errorf("retention = %s", back.retention)
	}
}

func TestSnapshotErrors(t *testing.T) {
	cases := []string{
		"",                                      // empty
		"not json\n",                            // garbage
		`{"format":"other","version":1}` + "\n", // wrong format
		`{"format":"caladrius-tsdb","version":9}` + "\n",                   // wrong version
		`{"format":"caladrius-tsdb","version":1,"series":2}` + "\n" + `{}`, // truncated + empty metric
	}
	for _, src := range cases {
		if _, err := ReadSnapshot(strings.NewReader(src)); err == nil {
			t.Errorf("snapshot %q accepted", src)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	db := populated(t)
	path := filepath.Join(t.TempDir(), "metrics.tsdb")
	if err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.TotalPoints() != db.TotalPoints() {
		t.Errorf("points = %d", back.TotalPoints())
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestQuickSnapshotRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := New(0)
		metrics := []string{"a", "b", "metric with spaces", "ünïcode"}
		for i := 0; i < 100; i++ {
			labels := Labels{}
			if r.Intn(2) == 0 {
				labels["instance"] = string(rune('0' + r.Intn(5)))
			}
			if r.Intn(3) == 0 {
				labels["weird key"] = `va"lue`
			}
			db.Append(metrics[r.Intn(len(metrics))], labels, t0.Add(time.Duration(r.Intn(10000))*time.Second), r.NormFloat64()*1e6)
		}
		var buf bytes.Buffer
		if err := db.WriteSnapshot(&buf); err != nil {
			return false
		}
		back, err := ReadSnapshot(&buf)
		if err != nil {
			return false
		}
		if back.TotalPoints() != db.TotalPoints() {
			return false
		}
		for _, m := range db.Metrics() {
			a, err1 := db.Query(m, nil, t0, t0.Add(100000*time.Second))
			b, err2 := back.Query(m, nil, t0, t0.Add(100000*time.Second))
			if err1 != nil || err2 != nil || !reflect.DeepEqual(a, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// FuzzReadSnapshot throws arbitrary bytes at the snapshot loader, which
// reads -history-file and -metrics dumps from disk. It must return an
// error rather than panic, and anything it accepts must be a sorted
// store that survives its own round trip.
func FuzzReadSnapshot(f *testing.F) {
	const hdr = `{"format":"caladrius-tsdb","version":1,"retention_ns":0,"series":1}` + "\n"
	var valid bytes.Buffer
	db := New(time.Hour)
	db.Append("m", Labels{"instance": "0"}, minuteAt(0), 1.5)
	db.Append("m", Labels{"instance": "1"}, minuteAt(1), -2)
	if err := db.WriteSnapshot(&valid); err != nil {
		f.Fatal(err)
	}
	seeds := []string{
		valid.String(),
		valid.String()[:valid.Len()-7], // truncated mid-series
		hdr + `{"metric":"m","labels":{"i":"0"},"points":[{"t":300,"v":3},{"t":100,"v":1},{"t":200,"v":2},{"t":100,"v":4}]}` + "\n",
		`{"format":"caladrius-tsdb","version":1,"series":9223372036854775807}` + "\n" + `{"metric":"m","points":[{"t":1,"v":1}]}` + "\n",
		`{"format":"caladrius-tsdb","version":1,"series":-3}` + "\n",
		hdr + `{"metric":"m","points":[{"t":1,"v":NaN}]}` + "\n",
		hdr + `{"metric":"m","points":[{"t":1,"v":1e999}]}` + "\n",
		hdr + `{"metric":"m","points":[{"t":1,"v":"+Inf"}]}` + "\n",
		`{"format":"caladrius-tsdb","version":1,"retention_ns":9223372036854775807,"series":1}` + "\n" +
			`{"metric":"m","points":[{"t":-9223372036854775808,"v":1},{"t":9223372036854775807,"v":2}]}` + "\n",
		hdr + `{"metric":"","points":[]}` + "\n",
		hdr + `{"metric":"m","labels":null,"points":null}` + "\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, md := range db.metrics {
			for _, sd := range md.byKey {
				for i := 1; i < len(sd.points); i++ {
					if sd.points[i].t < sd.points[i-1].t {
						t.Fatalf("series %v not sorted at %d", sd.labels, i)
					}
				}
			}
		}
		var buf bytes.Buffer
		if err := db.WriteSnapshot(&buf); err != nil {
			t.Fatalf("accepted snapshot does not re-serialise: %v", err)
		}
		back, err := ReadSnapshot(&buf)
		if err != nil {
			t.Fatalf("re-serialised snapshot rejected: %v", err)
		}
		if back.TotalPoints() != db.TotalPoints() || !reflect.DeepEqual(back.Metrics(), db.Metrics()) {
			t.Fatalf("round trip changed the store: %d/%v points/metrics, want %d/%v",
				back.TotalPoints(), back.Metrics(), db.TotalPoints(), db.Metrics())
		}
	})
}
