package main

import (
	"math"
	"testing"
	"time"
)

// near reports whether a and b agree to within a part in a million.
func near(a, b float64) bool { return math.Abs(a-b) <= 1e-6*math.Abs(b) }

// oneToHundred is 1ms..100ms, shuffled.
func oneToHundred() samples {
	s := make(samples, 100)
	for i := range s {
		s[i] = time.Duration((i*37)%100+1) * time.Millisecond
	}
	return s
}

func TestQuantilesOnKnownDistribution(t *testing.T) {
	s := oneToHundred()
	for _, c := range []struct {
		q      float64
		want   time.Duration
		beyond int
	}{
		{0.5, 50500 * time.Microsecond, 50},
		{0.9, 90100 * time.Microsecond, 10},
		{0.99, 99010 * time.Microsecond, 1},
		{1, 100 * time.Millisecond, 0},
		{0, time.Millisecond, 99},
	} {
		if got := s.quantile(c.q); !near(float64(got), float64(c.want)) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
		if got := s.beyond(c.q); got != c.beyond {
			t.Errorf("beyond(%v) = %d, want %d", c.q, got, c.beyond)
		}
	}
	if got := s.mean(); got != 50500*time.Microsecond {
		t.Errorf("mean = %v, want 50.5ms", got)
	}
	var empty samples
	if empty.quantile(0.5) != 0 || empty.mean() != 0 {
		t.Error("empty samples must report 0")
	}
	if got := medianFloat([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 values = %v, want 2", got)
	}
	if got := medianFloat([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median of 4 values = %v, want 2.5", got)
	}
}

func TestEndToEndReportsPercentilesAndCounts(t *testing.T) {
	r := &readerStats{}
	r.lat[kindFanout] = oneToHundred()
	for i := 0; i < 10; i++ {
		r.lat[kindDoc] = append(r.lat[kindDoc], time.Duration(i+1)*time.Millisecond)
	}
	ws := &windowStats{dur: 2 * time.Second, readers: []*readerStats{r}, heap: 3 << 20}
	if got, want := ws.String(), "fanouts 100 (5 beyond p95), docs 10 (1 beyond p95)"; got != want {
		t.Errorf("sample counts %q, want %q", got, want)
	}
	m := endToEnd([]float64{3, 1, 2}, samples{4 * time.Millisecond, 8 * time.Millisecond}, ws, 1.5)
	want := map[string]metric{
		"setup_s":                   {2, "s"},
		"fanout_p50_ms":             {50.5, "ms"},
		"fanout_p95_ms":             {95.05, "ms"},
		"doc_p50_ms":                {5.5, "ms"},
		"doc_p95_ms":                {9.55, "ms"},
		"read_qps":                  {55, "1/s"},
		"ingest_p90_ms":             {7.6, "ms"},
		"stored_bytes_per_xml_byte": {1.5, "ratio"},
		"heap_peak_mb":              {3, "MB"},
	}
	if len(m) != len(want) {
		t.Errorf("%d metrics, want %d", len(m), len(want))
	}
	for k, w := range want {
		if m[k].Unit != w.Unit || !near(m[k].Value, w.Value) {
			t.Errorf("%s = %+v, want %+v", k, m[k], w)
		}
	}
}
