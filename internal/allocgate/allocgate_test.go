package allocgate

import (
	"slices"
	"strings"
	"testing"
)

func TestRegressionsRule(t *testing.T) {
	kb := 1024.0
	type row struct {
		name          string
		base          Measurement
		allocs, bytes float64
		want          []string // the metrics that regress
	}
	for _, g := range []struct {
		name string
		rows []row
	}{
		{"AllocRegressionAndZeroAllocGuard", []row{
			{"a zero-allocation body allocates once", Measurement{Allocs: 0}, 1, 0, []string{"allocs/op"}},
			{"within 25 % plus half an allocation", Measurement{Allocs: 8}, 10, 0, nil},
			{"past the threshold", Measurement{Allocs: 100}, 126, 0, []string{"allocs/op"}},
			{"both", Measurement{Allocs: 4, Bytes: &kb}, 9, 4096, []string{"allocs/op", "B/op"}},
		}},
		{"BytesRegression", []row{
			{"bytes past the threshold", Measurement{Allocs: 4, Bytes: &kb}, 4, 4096, []string{"B/op"}},
			{"bytes within the 64 B of slack", Measurement{Allocs: 4, Bytes: &kb}, 4, 1300, nil},
			{"no bytes in the baseline", Measurement{Allocs: 4}, 4, 1 << 30, nil},
		}},
		{"ToleratesNoiseWithinThreshold", []row{
			{"drift within the threshold", Measurement{Allocs: 100}, 120, 0, nil},
		}},
	} {
		t.Run(g.name, func(t *testing.T) {
			for _, c := range g.rows {
				var got []string
				for _, r := range Regressions(c.base, c.allocs, c.bytes) {
					got = append(got, strings.SplitN(r, ":", 2)[0])
				}
				if !slices.Equal(got, c.want) {
					t.Errorf("%s: regressions %v, want %v", c.name, got, c.want)
				}
			}
		})
	}
}
