package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// tinyShapes shrink every workload to a few hundred facts while keeping
// its structure: giant still drops and re-registers (24 steps per
// instance), and every round still has the 200 query requests its p95
// needs, at least 10 of them beyond it.
var tinyShapes = map[string]shape{
	"warm-read": {clients: 2, stepsPerSecond: 500, batchLines: 8, ranks: []tier{{300, 0.05}, {300, 0.6}}},
	"churn":     {clients: 2, stepsPerSecond: 640, ranks: []tier{{300, 0.05}, {300, 0.6}}},
	"giant":     {clients: 1, stepsPerSecond: 320, ranks: []tier{{600, 0.05}, {600, 0.6}}},
}

// benchmarkSpec is the part of BENCHMARK.json the harness must honour.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// TestSmoke runs every workload served and traced at tiny sizes: no
// operation may fail, every metric BENCHMARK.json names must be reported
// with its unit, and the spans must nest.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, w.Name, workloadNames[i])
		}
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "cqa")
	if out, err := exec.Command("go", "build", "-o", bin, "cqa/cmd/cqa").CombinedOutput(); err != nil {
		t.Fatalf("build daemon: %v\n%s", err, out)
	}
	ctx := context.Background()
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			newTiny := func() *bench {
				b, err := generate(name, tinyShapes[name], 7, 1)
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			var log bytes.Buffer
			res, err := runServed(ctx, &log, newTiny(), bin)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, "served", res, spec.EndToEnd, &log)

			log.Reset()
			spans := filepath.Join(dir, name)
			if err := os.Mkdir(spans, 0o755); err != nil {
				t.Fatal(err)
			}
			res, err = runTraced(ctx, &log, newTiny(), spans)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, "traced", res, spec.PerLayer, &log)
			checkNesting(t, filepath.Join(spans, "spans-"+name+".csv.gz"))
		})
	}
}

func checkResult(t *testing.T, mode string, res result, want []struct{ Name, Unit string }, log *bytes.Buffer) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d\n%s", mode, res.Correct, res.Attempted, res.Failed, log)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json names %d", mode, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", mode, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: metric %s unit %q, want %q", mode, m.Name, got.Unit, m.Unit)
		}
	}
}

// checkNesting reads a span file back and checks that every span lies
// within its parent's interval and serves the same request.
func checkNesting(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	type iv struct{ req, start, end int64 }
	var spans []iv
	sc := bufio.NewScanner(zr)
	sc.Scan() // header
	for sc.Scan() {
		fields := strings.Split(sc.Text(), ",")
		num := func(i int) int64 {
			v, err := strconv.ParseInt(fields[i], 10, 64)
			if err != nil {
				t.Fatalf("span %q: %v", sc.Text(), err)
			}
			return v
		}
		id, parent := num(0), num(1)
		s := iv{num(2), num(4), num(5)}
		if id != int64(len(spans)+1) || parent >= id || s.end < s.start {
			t.Fatalf("span %q: bad id, parent or interval", sc.Text())
		}
		if parent > 0 {
			p := spans[parent-1]
			if p.req != s.req || s.start < p.start || s.end > p.end {
				t.Fatalf("span %q is not nested in its parent %v", sc.Text(), p)
			}
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("no spans written")
	}
}
