package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/telemetry/span"
)

// layerTimes is what a traced pass's spans say about each layer: per span
// name, how many spans, their total duration and their total self time
// (duration minus the part covered by child spans), all in µs.
type layerTimes struct {
	count   map[string]int
	totalUS map[string]float64
	selfUS  map[string]float64
}

// collect folds the tracers' spans into lt, exports them as NDJSON to
// path (replacing what an earlier call wrote there) and empties the
// tracers, so a long traced run holds one repetition's spans at a time.
func (lt *layerTimes) collect(path string, tracers ...*span.Tracer) error {
	if lt.count == nil {
		lt.count, lt.totalUS, lt.selfUS = map[string]int{}, map[string]float64{}, map[string]float64{}
	}
	var buf bytes.Buffer
	for _, tr := range tracers {
		start := buf.Len()
		if err := tr.WriteNDJSON(&buf); err != nil {
			return err
		}
		if err := lt.add(buf.Bytes()[start:]); err != nil {
			return err
		}
		tr.Reset()
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// add folds one tracer's NDJSON records into lt. Span ids are unique per
// tracer, so each tracer's records are resolved on their own.
func (lt *layerTimes) add(ndjson []byte) error {
	var recs []span.Record
	sc := bufio.NewScanner(bytes.NewReader(ndjson))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var r span.Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return fmt.Errorf("span record: %w", err)
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	childUS := make(map[uint64]float64, len(recs))
	for _, r := range recs {
		if r.Parent != 0 {
			childUS[r.Parent] += r.DurUS
		}
	}
	for _, r := range recs {
		lt.count[r.Name]++
		lt.totalUS[r.Name] += r.DurUS
		lt.selfUS[r.Name] += r.DurUS - childUS[r.ID]
	}
	return nil
}

// selfSumUS is Σ self time over every layer.
func (lt layerTimes) selfSumUS() float64 {
	var s float64
	for _, v := range lt.selfUS {
		s += v
	}
	return s
}

// meanMS is the mean duration of the named spans in ms.
func (lt layerTimes) meanMS(name string) float64 {
	return ratio(lt.totalUS[name], float64(lt.count[name])) / 1e3
}

// checkSelfSum verifies that the layers' self times add up to the traced
// slot time measured around the calls, within the reported tracing
// overhead (at least 5%, so timer noise alone cannot trip it).
func checkSelfSum(out *outcome, lt layerTimes, wallUS, overhead float64) {
	tol := overhead
	if tol < 0 {
		tol = -tol
	}
	if tol < 0.05 {
		tol = 0.05
	}
	got := lt.selfSumUS()
	if wallUS <= 0 || got <= 0 {
		out.fail("traced pass recorded no span time")
		return
	}
	if d := (wallUS - got) / wallUS; d > tol || d < -tol {
		out.fail("layer self times sum to %.0f µs, traced slots took %.0f µs (gap %.1f%% > %.1f%%)",
			got, wallUS, 100*d, 100*tol)
	}
}
