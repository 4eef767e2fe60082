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

	names := make([]string, 0, len(db.metrics))
	count := 0
	for metric, md := range db.metrics {
		names = append(names, metric)
		count += len(md.all)
	}
	sort.Strings(names)

	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(snapshotHeader{
		Format:    snapshotFormat,
		Version:   1,
		Retention: int64(db.retention),
		Series:    count,
	}); err != nil {
		return err
	}
	for _, metric := range names {
		for _, sd := range db.metrics[metric].all { // canonical key order
			s := snapshotSeries{Metric: metric, Labels: sd.labels, Points: make([]snapshotPoint, len(sd.points))}
			for i, p := range sd.points {
				s.Points[i] = snapshotPoint{T: p.t, V: p.v}
			}
			if err := enc.Encode(s); err != nil {
				return err
			}
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
