package trace

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
)

// The artifact distributes the Twitter trace as a text file listing the
// average queries per second for each ten-second interval
// (twitter_trace/twitter_04_25_norm.txt). These helpers read and write that
// format so externally captured traces drop in directly.

// LoadQPSFile reads a trace in the artifact's format: one average-QPS value
// per line (blank lines and '#' comments ignored), one value per
// intervalSec seconds.
func LoadQPSFile(path string, intervalSec float64) (Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return Trace{}, err
	}
	defer f.Close()
	if intervalSec <= 0 {
		intervalSec = 10
	}
	tr := Trace{Name: path, IntervalSec: intervalSec}
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		q, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return Trace{}, fmt.Errorf("trace: %s:%d: %w", path, line, err)
		}
		if q < 0 {
			return Trace{}, fmt.Errorf("trace: %s:%d: negative load %v", path, line, q)
		}
		if math.IsNaN(q) || math.IsInf(q, 0) {
			return Trace{}, fmt.Errorf("trace: %s:%d: non-finite load %v", path, line, q)
		}
		tr.QPS = append(tr.QPS, q)
	}
	if err := sc.Err(); err != nil {
		return Trace{}, err
	}
	if len(tr.QPS) == 0 {
		return Trace{}, fmt.Errorf("trace: %s contains no load values", path)
	}
	return tr, nil
}

// SaveQPSFile writes the trace in the artifact's one-QPS-per-line format.
func (t Trace) SaveQPSFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, q := range t.QPS {
		if _, err := fmt.Fprintf(w, "%g\n", q); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
