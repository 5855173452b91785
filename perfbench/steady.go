package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness mode reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		m := i * (n + 1)
		j := m / 4
		j = min(max(j, 1), n-1)
		delta := float64(m-j*4) / 4
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	if n < 2 {
		return s[0], s[0], s[0]
	}
	return at(1), at(2), at(3)
}

// runSteady runs the workload n times with seeds seed, seed+1, ... and
// prints each end-to-end metric's median, quartiles and spread (the
// interquartile distance as a share of the median) next to its bound.
func runSteady(cfg config, n int) error {
	var bf benchmarkFile
	b, err := os.ReadFile(filepath.Join(cfg.root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	for i := range n {
		seed := cfg.seed + int64(i)
		cmd := exec.Command(self, "--workload", cfg.workload, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(cfg.seconds), "--trace", "0",
			"--root", cfg.root, "--serve-bin", cfg.serveBin, "--work", cfg.work)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		var res result
		var last, steal string
		sc := bufio.NewScanner(&out)
		for sc.Scan() {
			last = sc.Text()
			if f := strings.Fields(last); len(f) > 1 && f[0] == "host_steal_share" {
				steal = f[1]
			}
		}
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			return fmt.Errorf("seed %d: bad result line %q: %w", seed, last, err)
		}
		fmt.Printf("seed %d: correct=%v attempted=%d failed=%d", seed, res.Correct, res.Attempted, res.Failed)
		for _, m := range bf.EndToEnd {
			v := res.Metrics[m.Name].Value
			values[m.Name] = append(values[m.Name], v)
			fmt.Printf(" %s=%.5g", m.Name, v)
		}
		if steal != "" {
			fmt.Printf(" (host_steal_share=%s)", steal)
		}
		fmt.Println()
	}
	fmt.Printf("\n%s, %d runs of %ds\n", cfg.workload, n, cfg.seconds)
	fmt.Printf("%-22s %12s %12s %12s %8s %7s %s\n", "metric", "q1", "median", "q3", "spread", "bound", "verdict")
	for _, m := range bf.EndToEnd {
		q1, q2, q3 := quartiles(values[m.Name])
		spread := (q3 - q1) / math.Abs(q2)
		verdict := "steady"
		switch {
		case spread > m.Bound:
			verdict = "UNRESOLVED: spread exceeds the bound"
		case spread > m.Bound/3:
			verdict = "within the bound, above a third of it"
		}
		fmt.Printf("%-22s %12.5g %12.5g %12.5g %8.4f %7.3f %s\n", m.Name, q1, q2, q3, spread, m.Bound, verdict)
	}
	return nil
}
