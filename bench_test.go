// BenchmarkExperiments regenerates every figure of the paper's evaluation
// plus the ablation and extension studies: one sub-benchmark per entry of
// the experiment registry (internal/bench/registry.go; DESIGN.md section 4
// indexes the ids). Each reports its entry's metrics; run with -v to see
// the tables the paper plots:
//
//	go test -run '^$' -bench . -benchtime 1x -v
//
// Sizes are those of EXPERIMENTS.md (bench.FullSizes); `sim report
// -quick` is the smoke run at small sizes.
package supersim_test

import (
	"strings"
	"testing"

	"supersim/internal/bench"
)

func BenchmarkExperiments(b *testing.B) {
	for _, e := range bench.Experiments {
		b.Run(e.ID, func(b *testing.B) {
			var s bench.Section
			for i := 0; i < b.N; i++ {
				var err error
				if s, err = e.Run(bench.FullSizes); err != nil {
					b.Fatal(err)
				}
			}
			for _, m := range s.Metrics {
				b.ReportMetric(m.Value, m.Name)
			}
			var sb strings.Builder
			if err := s.WriteText(&sb); err != nil {
				b.Fatal(err)
			}
			b.Logf("%s — %s:\n%s", e.ID, e.Title, sb.String())
		})
	}
}
