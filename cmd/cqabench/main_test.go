package main

import "testing"

// TestExperimentsMatch runs every paper-artifact experiment, so an
// artifact that drifts from the paper fails go test.
func TestExperimentsMatch(t *testing.T) {
	for _, e := range experiments {
		t.Run(e.id, func(t *testing.T) {
			if !e.run() {
				t.Errorf("%s (%s): measured value does not match the paper", e.id, e.title)
			}
		})
	}
}
