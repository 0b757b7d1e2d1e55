package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestMeanAndStdDev(t *testing.T) {
	var s Sample
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if got := s.Mean(); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	// Sample stddev with n-1 denominator: sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if got := s.StdDev(); math.Abs(got-want) > 1e-12 {
		t.Errorf("StdDev = %v, want %v", got, want)
	}
	if s.N() != 8 {
		t.Errorf("N = %d, want 8", s.N())
	}
}

func TestEmptySampleIsSafe(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.StdDev() != 0 || s.Max() != 0 || s.Percentile(0) != 0 || s.Percentile(50) != 0 {
		t.Error("empty sample returned nonzero statistics")
	}
}

func TestSingleValue(t *testing.T) {
	var s Sample
	s.Add(7)
	if s.Mean() != 7 || s.StdDev() != 0 || s.Percentile(0) != 7 || s.Max() != 7 {
		t.Errorf("single-value stats wrong: mean=%v sd=%v", s.Mean(), s.StdDev())
	}
}

func TestAddDurationConvertsToMilliseconds(t *testing.T) {
	var s Sample
	s.AddDuration(1500 * time.Microsecond)
	if got := s.Mean(); got != 1.5 {
		t.Errorf("AddDuration(1.5ms) → mean %v, want 1.5", got)
	}
}

func TestMinMaxPercentile(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if s.Max() != 100 {
		t.Errorf("max = %v", s.Max())
	}
	if got := s.Percentile(0); got != 1 {
		t.Errorf("P0 = %v", got)
	}
	if got := s.Percentile(100); got != 100 {
		t.Errorf("P100 = %v", got)
	}
	if got := s.Percentile(50); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("P50 = %v, want 50.5", got)
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var s Sample
		lo := math.Inf(1)
		for i := 0; i < 1+rng.Intn(50); i++ {
			v := rng.NormFloat64() * 100
			lo = math.Min(lo, v)
			s.Add(v)
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := s.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return s.Percentile(0) == lo && s.Percentile(100) == s.Max()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStdDevNonNegativeProperty(t *testing.T) {
	prop := func(vals []float64) bool {
		var s Sample
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			s.Add(v)
		}
		return s.StdDev() >= 0 && s.Percentile(0) <= s.Max() || s.N() == 0
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Title", "name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRowf("beta", 2.5)
	out := tb.String()
	if !strings.Contains(out, "Title") {
		t.Error("title missing")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, two rows
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[3], "alpha") || !strings.Contains(lines[4], "2.5") {
		t.Errorf("rows wrong:\n%s", out)
	}
	// Columns align: "name" and "alpha" start at the same offset.
	if strings.Index(lines[1], "value") != strings.Index(lines[3], "1") {
		t.Errorf("columns misaligned:\n%s", out)
	}
}

func TestTableExtraCellsDropped(t *testing.T) {
	tb := NewTable("", "a")
	tb.AddRow("x", "overflow")
	if strings.Contains(tb.String(), "overflow") {
		t.Error("cell beyond header width rendered")
	}
}
