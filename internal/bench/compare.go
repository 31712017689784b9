package bench

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Compare is the benchmark regression harness: it diffs two BENCH_*.json
// reports of the same experiment and classifies every shared metric as ok,
// improved, or regressed against a relative threshold. It is schema-agnostic
// — it walks any report whose top level holds arrays of measurement objects
// ("points", "cells", "sweep", ...) plus top-level scalar metrics — so one
// harness gates every experiment this package emits, past and future.

// metricDir says which way is better for a metric name. Names not listed are
// identity fields: they key the row matching instead of being compared.
var metricDir = map[string]bool{ // true = higher is better
	"events_per_sec":   true,
	"push_obs_per_sec": true,
	"pull_obs_per_sec": true,
	"ops_per_sec":      true,

	"elapsed_ms":      false,
	"rel_cost":        false,
	"ingest_ms":       false,
	"in_process_ms":   false,
	"batch_p50_us":    false,
	"batch_p99_us":    false,
	"push_ingest_ms":  false,
	"push_elapsed_ms": false,
	"pull_ingest_ms":  false,
	"pull_elapsed_ms": false,
	"ns_per_op":       false,
	"bytes_per_op":    false,
	"allocs_per_op":   false,
}

// compareSkip are derived or run-identifying fields excluded from both the
// identity key and the metric set.
var compareSkip = map[string]bool{
	"speedup":    true,
	"ratio":      true,
	"timestamp":  true,
	"commit":     true,
	"gomaxprocs": true, // observed value; the requested "cores" keys the row
	"iterations": true,
	"rsd_pct":    true,
}

// CompareRow is one metric of one matched measurement.
type CompareRow struct {
	Section  string // top-level array the row came from ("" for top-level scalars)
	Key      string // identity of the measurement within the section
	Metric   string
	Old, New float64
	DeltaPct float64 // (new-old)/old * 100, sign as measured
	// Status is "ok", "improved", or "regressed"; improvement and regression
	// are relative changes past the threshold in the metric's good or bad
	// direction.
	Status string
}

// CompareReport is the diff of two benchmark reports.
type CompareReport struct {
	Experiment  string
	Threshold   float64 // relative, e.g. 0.15
	Rows        []CompareRow
	Missing     []string // measurements present in old but absent in new
	Added       []string // measurements present in new but absent in old
	Regressions int
}

// Compare diffs two serialized reports. A malformed document or mismatched
// experiment headers is an error; a regression is not (inspect Regressions
// or use Gate).
func Compare(oldData, newData []byte, threshold float64) (*CompareReport, error) {
	var oldDoc, newDoc map[string]any
	if err := json.Unmarshal(oldData, &oldDoc); err != nil {
		return nil, fmt.Errorf("bench: old report: %w", err)
	}
	if err := json.Unmarshal(newData, &newDoc); err != nil {
		return nil, fmt.Errorf("bench: new report: %w", err)
	}
	oldExp, _ := oldDoc["experiment"].(string)
	newExp, _ := newDoc["experiment"].(string)
	if oldExp != newExp {
		return nil, fmt.Errorf("bench: experiment mismatch: old is %q, new is %q", oldExp, newExp)
	}
	rep := &CompareReport{Experiment: oldExp, Threshold: threshold}

	// A whole arm (a distinct "mode" value) present in the new report but
	// absent from the baseline means the baseline predates the new schema:
	// matching would silently skip the arm's every measurement, so fail
	// loudly as malformed input — the committed baseline needs a refresh.
	for _, section := range sortedKeys(newDoc) {
		newEntries := measurements(newDoc[section])
		if newEntries == nil {
			continue
		}
		oldModes := modeSet(measurements(oldDoc[section]))
		for _, m := range sortedModes(modeSet(newEntries)) {
			if !oldModes[m] {
				return nil, fmt.Errorf("bench: section %q: arm %q is missing from the old report (refresh the baseline)", section, m)
			}
		}
	}

	// Top-level scalar metrics (ingest_ms, in_process_ms, ...).
	for _, name := range sortedKeys(oldDoc) {
		if _, isMetric := metricDir[name]; !isMetric {
			continue
		}
		ov, ook := toFloat(oldDoc[name])
		nv, nok := toFloat(newDoc[name])
		if ook && nok {
			rep.addRow("", "", name, ov, nv)
		}
	}

	// Measurement arrays: match entries across files by identity key.
	for _, section := range sortedKeys(oldDoc) {
		oldEntries := measurements(oldDoc[section])
		if oldEntries == nil {
			continue
		}
		newEntries := measurements(newDoc[section])
		newByKey := map[string]map[string]any{}
		for _, e := range newEntries {
			newByKey[identityKey(e)] = e
		}
		seen := map[string]bool{}
		for _, oe := range oldEntries {
			key := identityKey(oe)
			seen[key] = true
			ne, ok := newByKey[key]
			if !ok {
				rep.Missing = append(rep.Missing, section+": "+key)
				continue
			}
			for _, name := range sortedKeys(oe) {
				if _, isMetric := metricDir[name]; !isMetric {
					continue
				}
				ov, ook := toFloat(oe[name])
				nv, nok := toFloat(ne[name])
				if ook && nok {
					rep.addRow(section, key, name, ov, nv)
				}
			}
		}
		for _, ne := range newEntries {
			if key := identityKey(ne); !seen[key] {
				rep.Added = append(rep.Added, section+": "+key)
			}
		}
	}
	return rep, nil
}

// addRow classifies one metric delta and appends it.
func (r *CompareReport) addRow(section, key, metric string, ov, nv float64) {
	row := CompareRow{Section: section, Key: key, Metric: metric, Old: ov, New: nv, Status: "ok"}
	if ov != 0 {
		row.DeltaPct = (nv - ov) / ov * 100
		rel := (nv - ov) / ov
		if !metricDir[metric] {
			rel = -rel // lower is better: a drop is an improvement
		}
		switch {
		case rel < -r.Threshold:
			row.Status = "regressed"
			r.Regressions++
		case rel > r.Threshold:
			row.Status = "improved"
		}
	}
	r.Rows = append(r.Rows, row)
}

// Gate returns an error when the comparison found regressions or when
// measurements disappeared (a silently dropped cell must not pass a CI
// gate).
func (r *CompareReport) Gate() error {
	if r.Regressions > 0 {
		return fmt.Errorf("bench: %d metric(s) regressed more than %.0f%%", r.Regressions, r.Threshold*100)
	}
	if len(r.Missing) > 0 {
		return fmt.Errorf("bench: %d measurement(s) in the baseline are missing from the new report", len(r.Missing))
	}
	return nil
}

// modeSet collects the distinct "mode" values of a measurement array — the
// arms of an experiment section. Empty when the schema has no mode field.
func modeSet(entries []map[string]any) map[string]bool {
	out := map[string]bool{}
	for _, e := range entries {
		if m, ok := e["mode"].(string); ok {
			out[m] = true
		}
	}
	return out
}

func sortedModes(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for m := range set {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// measurements interprets v as an array of measurement objects.
func measurements(v any) []map[string]any {
	arr, ok := v.([]any)
	if !ok {
		return nil
	}
	var out []map[string]any
	for _, e := range arr {
		m, ok := e.(map[string]any)
		if !ok {
			return nil
		}
		out = append(out, m)
	}
	return out
}

// identityKey builds a stable key from an entry's non-metric scalar fields.
func identityKey(e map[string]any) string {
	var parts []string
	for _, k := range sortedKeys(e) {
		if _, isMetric := metricDir[k]; isMetric || compareSkip[k] {
			continue
		}
		switch v := e[k].(type) {
		case string:
			parts = append(parts, fmt.Sprintf("%s=%s", k, v))
		case bool:
			parts = append(parts, fmt.Sprintf("%s=%t", k, v))
		case float64:
			parts = append(parts, fmt.Sprintf("%s=%g", k, v))
		}
	}
	return strings.Join(parts, " ")
}

func toFloat(v any) (float64, bool) {
	f, ok := v.(float64)
	return f, ok
}

func sortedKeys(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		if !compareSkip[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// FormatCompare renders the diff as an aligned table, regressions first.
func FormatCompare(r *CompareReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "compare %q (threshold %.0f%%): %d metrics, %d regressed, %d missing, %d added\n",
		r.Experiment, r.Threshold*100, len(r.Rows), r.Regressions, len(r.Missing), len(r.Added))
	rows := append([]CompareRow(nil), r.Rows...)
	sort.SliceStable(rows, func(i, j int) bool {
		rank := func(s string) int {
			switch s {
			case "regressed":
				return 0
			case "improved":
				return 1
			}
			return 2
		}
		return rank(rows[i].Status) < rank(rows[j].Status)
	})
	for _, row := range rows {
		loc := row.Metric
		if row.Key != "" {
			loc = row.Key + " " + row.Metric
		}
		if row.Section != "" {
			loc = row.Section + ": " + loc
		}
		fmt.Fprintf(&b, "  %-9s %-70s %14.2f -> %14.2f  %+7.1f%%\n",
			row.Status, loc, row.Old, row.New, row.DeltaPct)
	}
	for _, m := range r.Missing {
		fmt.Fprintf(&b, "  missing   %s\n", m)
	}
	for _, a := range r.Added {
		fmt.Fprintf(&b, "  added     %s\n", a)
	}
	return b.String()
}
