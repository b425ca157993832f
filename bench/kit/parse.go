package kit

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// ParseCSV splits a CLI -csv table into its header and rows.
func ParseCSV(text string) (header []string, rows [][]string, err error) {
	recs, err := csv.NewReader(strings.NewReader(text)).ReadAll()
	if err != nil {
		return nil, nil, fmt.Errorf("parse csv: %w", err)
	}
	if len(recs) < 2 {
		return nil, nil, fmt.Errorf("parse csv: %d lines, want a header and at least one row", len(recs))
	}
	return recs[0], recs[1:], nil
}

// Cell returns rows[row][col] or an error naming what is missing.
func Cell(rows [][]string, row, col int) (string, error) {
	if row < 0 || row >= len(rows) || col < 0 || col >= len(rows[row]) {
		return "", fmt.Errorf("no cell at row %d column %d", row, col)
	}
	return rows[row][col], nil
}

var (
	simWindowRE = regexp.MustCompile(`(?m)^window:\s+\d+ source firings, (\d+) input items$`)
	simMissesRE = regexp.MustCompile(`(?m)^misses:\s+(\d+) \(`)
)

// ParseSimulate extracts the miss count and the window's input items
// from the text `streamsched simulate` prints.
func ParseSimulate(text string) (misses, items int64, err error) {
	w := simWindowRE.FindStringSubmatch(text)
	m := simMissesRE.FindStringSubmatch(text)
	if w == nil || m == nil {
		return 0, 0, fmt.Errorf("parse simulate output: no window/misses lines")
	}
	items, _ = strconv.ParseInt(w[1], 10, 64) // the patterns admit digits only
	misses, _ = strconv.ParseInt(m[1], 10, 64)
	return misses, items, nil
}

// PerItem formats misses per input item the way the CLI's tables do
// (three decimals), so a pointwise result compares to a CSV cell at
// printed precision.
func PerItem(misses, items int64) string {
	if items <= 0 {
		return "0.000"
	}
	return strconv.FormatFloat(float64(misses)/float64(items), 'f', 3, 64)
}

// ProfilePoint is one capacity of a daemon profile response.
type ProfilePoint struct {
	Capacity int64 `json:"capacity"`
	Misses   int64 `json:"misses"`
}

// ProfileResponse is the part of a daemon profile response the output
// checks read.
type ProfileResponse struct {
	Key        string         `json:"key"`
	InputItems int64          `json:"input_items"`
	Accesses   int64          `json:"accesses"`
	Points     []ProfilePoint `json:"points"`
}

// ParseProfileResponse decodes a profile response body.
func ParseProfileResponse(body []byte) (*ProfileResponse, error) {
	var r ProfileResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("parse profile response: %w", err)
	}
	if r.Key == "" || len(r.Points) == 0 {
		return nil, fmt.Errorf("parse profile response: no key or no points")
	}
	return &r, nil
}

// DaemonStats is the part of /v1/stats the output checks read.
type DaemonStats struct {
	Computations int64 `json:"computations"`
	Requests     int64 `json:"requests"`
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	Evictions    int64 `json:"evictions"`
	Fastpath     int64 `json:"fastpath"`
	Errors       int64 `json:"errors"`
	CacheEntries int64 `json:"cache_entries"`
}

// ParseStats decodes a /v1/stats body.
func ParseStats(body []byte) (*DaemonStats, error) {
	var s DaemonStats
	if err := json.Unmarshal(body, &s); err != nil {
		return nil, fmt.Errorf("parse stats: %w", err)
	}
	return &s, nil
}
