package main

import (
	"slices"
	"strings"
	"testing"
)

func TestParseKeepsFastestNsAndFewestAllocs(t *testing.T) {
	out := `goos: linux
cpu: Intel(R) Xeon(R) Processor
BenchmarkTierSAT/facts=1000-4         	     150	   1164369 ns/op	  530112 B/op	    2210 allocs/op
BenchmarkTierSAT/facts=1000-4         	     140	   1100000 ns/op	  530112 B/op	    2230 allocs/op
BenchmarkTierSAT/facts=1000-4         	     160	   1200000 ns/op	  530000 B/op	    2190 allocs/op
BenchmarkWarmAfterMutation/conp/cold/facts=1000	  100	  1090374 ns/op	 1.000 repairs/op	 90000 B/op	 812 allocs/op
BenchmarkEngineReuse/mixed-4          	  900000	      1377 ns/op
BenchmarkEngineReuse/mixed-4          	  900000	      1300 ns/op
PASS
`
	m := measurements{ns: map[string]float64{}, allocs: map[string]float64{}}
	if err := parse(strings.NewReader(out), &m); err != nil {
		t.Fatal(err)
	}
	if m.cpu != "Intel(R) Xeon(R) Processor" {
		t.Errorf("cpu = %q", m.cpu)
	}
	for name, want := range map[string]float64{
		"BenchmarkTierSAT/facts=1000":                     1100000,
		"BenchmarkWarmAfterMutation/conp/cold/facts=1000": 1090374,
		"BenchmarkEngineReuse/mixed":                      1300,
	} {
		if got := m.ns[name]; got != want {
			t.Errorf("ns/op of %s = %v, want %v", name, got, want)
		}
	}
	for name, want := range map[string]float64{
		"BenchmarkTierSAT/facts=1000":                     2190,
		"BenchmarkWarmAfterMutation/conp/cold/facts=1000": 812,
	} {
		if got := m.allocs[name]; got != want {
			t.Errorf("allocs/op of %s = %v, want %v", name, got, want)
		}
	}
	if _, ok := m.allocs["BenchmarkEngineReuse/mixed"]; ok {
		t.Errorf("allocs/op recorded for a line without -benchmem")
	}
}

func TestGateAllocs(t *testing.T) {
	ceilings := map[string]float64{"BenchmarkA": 100, "BenchmarkB": 100, "BenchmarkC": 100}
	allocs := map[string]float64{"BenchmarkA": 100, "BenchmarkB": 101}
	report := Report{Pass: true}
	gateAllocs(ceilings, allocs, &report)
	if report.Pass {
		t.Fatal("a benchmark over its ceiling and one without -benchmem must fail the gate")
	}
	if want := []string{"BenchmarkB allocs/op", "BenchmarkC allocs/op (not run)"}; !slices.Equal(report.Regressions, want) {
		t.Errorf("regressions = %q, want %q", report.Regressions, want)
	}
	if got := report.Allocs["BenchmarkA"]; got != (AllocResult{AllocsPerOp: 100, Max: 100}) {
		t.Errorf("BenchmarkA result = %+v, want 100 allocs/op at max 100", got)
	}

	report = Report{Pass: true}
	gateAllocs(ceilings, map[string]float64{"BenchmarkA": 1, "BenchmarkB": 2, "BenchmarkC": 3}, &report)
	if !report.Pass || len(report.Allocs) != 3 {
		t.Errorf("every benchmark under its ceiling: pass = %v, results = %v", report.Pass, report.Allocs)
	}
}
