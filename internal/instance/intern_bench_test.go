package instance_test

import (
	"fmt"
	"testing"

	"cqa/internal/workload"
)

// BenchmarkInternRoot times the lineage-root build of an interned
// snapshot: the layer a registration, or a mutation that changes the
// constant universe, pays before its first decision. The instances
// are shaped like the servebench churn (8e3 facts) and giant (7e4
// facts) instances: relations R, X, Y and A, 3/4 as many constants as
// facts, conflict rate 0.05. Each iteration interns a fresh clone,
// made outside the timer.
func BenchmarkInternRoot(b *testing.B) {
	for _, facts := range []int{8000, 70000} {
		db := workload.Random(workload.Config{
			Relations:    []string{"R", "X", "Y", "A"},
			Constants:    facts * 3 / 4,
			Facts:        facts,
			ConflictRate: 0.05,
			Seed:         1,
		})
		b.Run(fmt.Sprintf("facts=%d", facts), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := db.Clone()
				b.StartTimer()
				c.Interned()
			}
		})
	}
}
