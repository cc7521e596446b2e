package bench

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestQuantile(t *testing.T) {
	cases := []struct {
		name    string
		n       int
		q       float64
		want    float64
		refused bool
	}{
		{"p50 of 20 is the 10th, ten beyond", 20, 0.50, 10, false},
		{"p50 of 19 has nine beyond", 19, 0.50, 0, true},
		{"p50 of 21 is the 11th", 21, 0.50, 11, false},
		{"p95 of 200 is the 190th", 200, 0.95, 190, false},
		{"p95 of 199 has nine beyond", 199, 0.95, 0, true},
		{"p99 of 1000 is the 990th", 1000, 0.99, 990, false},
		{"p99 of 999 refused", 999, 0.99, 0, true},
		{"p99.9 of 10000 is the 9990th", 10000, 0.999, 9990, false},
		{"p99.9 of 5000 refused", 5000, 0.999, 0, true},
		{"empty sample refused", 0, 0.50, 0, true},
		{"q=0 is not a percentile", 100, 0, 0, true},
		{"q=1 is not a percentile", 100, 1, 0, true},
	}
	for _, c := range cases {
		v, n, err := Quantile(seq(c.n), c.q)
		if n != c.n {
			t.Errorf("%s: count = %d, want %d", c.name, n, c.n)
		}
		if (err != nil) != c.refused {
			t.Errorf("%s: err = %v, refused want %v", c.name, err, c.refused)
		}
		if v != c.want {
			t.Errorf("%s: value = %v, want %v", c.name, v, c.want)
		}
	}
}

func TestQuantileReadsRawSamples(t *testing.T) {
	// Nearest rank returns a sample that was observed, never a blend.
	xs := append(seq(30), 1e9)
	v, _, err := Quantile(xs, 0.50)
	if err != nil || v != 16 {
		t.Fatalf("p50 = %v, %v; want the 16th sample", v, err)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1}, 2},
		{[]float64{9, 1, 5}, 5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
