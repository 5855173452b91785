package main

import (
	"math"
	"math/rand"
	"testing"
)

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4),
// the definition the steadiness verdict is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 4, 4}, [3]float64{2.375, 4, 6.5}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestQuantileInterpolatesAndSortsFailuresLast(t *testing.T) {
	if got := quantile([]float64{4, 1, 3, 2}, 0.5); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile([]float64{1, math.Inf(1), 2}, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 with a failure = %v, want +Inf", got)
	}
}

// TestMixKeepsClassProportions checks that every block of a mix holds each
// class exactly its weight times, whatever the seed.
func TestMixKeepsClassProportions(t *testing.T) {
	classes := []class{{"a", 3, []string{"qa"}}, {"b", 1, []string{"qb1", "qb2"}}}
	for seed := int64(1); seed <= 3; seed++ {
		ops := mix(rand.New(rand.NewSource(seed)), classes, 400)
		counts := map[string]int{}
		for i, r := range ops {
			counts[r.query]++
			if (i+1)%4 == 0 && counts["qa"] != 3*(i+1)/4 {
				t.Fatalf("seed %d: block ending at %d holds %d of class a", seed, i, counts["qa"])
			}
		}
		if counts["qb1"] != 50 || counts["qb2"] != 50 {
			t.Errorf("seed %d: class b rotation %v", seed, counts)
		}
	}
}

// TestOracleStateWindow checks the ingest-read rule: an answer must match
// the state after some k fragments with lo <= k <= hi.
func TestOracleStateWindow(t *testing.T) {
	o := &oracle{states: map[string][]float64{"q": {10, 11, 11, 12}}}
	r := op{class: "count", query: "q"}
	if err := o.check(r, []string{"11"}, 1, 2); err != nil {
		t.Errorf("11 within 1..2: %v", err)
	}
	for _, item := range []string{"10", "12"} {
		if err := o.check(r, []string{item}, 1, 2); err == nil {
			t.Errorf("%s outside 1..2 accepted", item)
		}
	}
}
