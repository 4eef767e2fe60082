package tsdb

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// Snapshotting lets a metrics database be written to disk and loaded
// later — the workflow of profiling a topology once (heronsim -save)
// and serving Caladrius from the dump (caladrius -metrics). The format
// is line-delimited JSON: one header line, then one line per series
// carrying its identity and points, deterministic (sorted) so dumps
// diff cleanly.

// snapshotHeader identifies the format.
type snapshotHeader struct {
	Format    string `json:"format"`
	Version   int    `json:"version"`
	Retention int64  `json:"retention_ns"`
	Series    int    `json:"series"`
}

type snapshotSeries struct {
	Metric string          `json:"metric"`
	Labels Labels          `json:"labels"`
	Points []snapshotPoint `json:"points"`
}

type snapshotPoint struct {
	T int64   `json:"t"` // UnixNano
	V float64 `json:"v"`
}

const snapshotFormat = "caladrius-tsdb"

// WriteSnapshot serialises the full database to w.
func (db *DB) WriteSnapshot(w io.Writer) error {
	db.mu.RLock()
	defer db.mu.RUnlock()

	type entry struct {
		metric string
		key    string
		data   *seriesData
	}
	var entries []entry
	for metric, bySeries := range db.metrics {
		for key, sd := range bySeries {
			entries = append(entries, entry{metric, key, sd})
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].metric != entries[j].metric {
			return entries[i].metric < entries[j].metric
		}
		return entries[i].key < entries[j].key
	})

	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(snapshotHeader{
		Format:    snapshotFormat,
		Version:   1,
		Retention: int64(db.retention),
		Series:    len(entries),
	}); err != nil {
		return err
	}
	for _, e := range entries {
		s := snapshotSeries{Metric: e.metric, Labels: e.data.labels, Points: make([]snapshotPoint, len(e.data.points))}
		for i, p := range e.data.points {
			s.Points[i] = snapshotPoint{T: p.t, V: p.v}
		}
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSnapshot loads a database from a snapshot produced by
// WriteSnapshot. The snapshot's retention setting is restored.
func ReadSnapshot(r io.Reader) (*DB, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	var h snapshotHeader
	if err := dec.Decode(&h); err != nil {
		return nil, fmt.Errorf("tsdb: snapshot header: %w", err)
	}
	if h.Format != snapshotFormat {
		return nil, fmt.Errorf("tsdb: snapshot format %q, want %q", h.Format, snapshotFormat)
	}
	if h.Version != 1 {
		return nil, fmt.Errorf("tsdb: unsupported snapshot version %d", h.Version)
	}
	db := New(time.Duration(h.Retention))
	for i := 0; i < h.Series; i++ {
		var s snapshotSeries
		if err := dec.Decode(&s); err != nil {
			return nil, fmt.Errorf("tsdb: snapshot series %d/%d: %w", i+1, h.Series, err)
		}
		if s.Metric == "" {
			return nil, fmt.Errorf("tsdb: snapshot series %d has empty metric", i+1)
		}
		if len(s.Points) == 0 {
			continue // like Append, never create an empty series
		}
		// db is not shared yet, so the locked helpers need no lock.
		sd := db.seriesLocked(s.Metric, s.Labels.canonical(), s.Labels)
		for _, p := range s.Points {
			db.appendLocked(sd, p.T, p.V)
		}
	}
	return db, nil
}

// SaveFile writes the snapshot to a file (atomically, via a temp file
// in the same directory).
func (db *DB) SaveFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := db.WriteSnapshot(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// LoadFile reads a snapshot file.
func LoadFile(path string) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSnapshot(f)
}
