package profile_test

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/ir"
	"repro/internal/profile"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// mapCollector is the map-only reference for Collector.Record: every value
// looks its histogram up in the UID map, with the same exact-representation
// rule for uncheckable values.
type mapCollector struct{ data *profile.Data }

func (c *mapCollector) Record(in *ir.Instr, bits uint64) {
	var v float64
	ok := true
	if in.Ty == ir.F64 {
		v = math.Float64frombits(bits)
		ok = !math.IsNaN(v) && !math.IsInf(v, 0)
	} else {
		i := int64(bits)
		v = float64(i)
		ok = v >= -9223372036854775808.0 && v < 9223372036854775808.0 && int64(v) == i
	}
	h := c.data.ByUID[in.UID]
	if h == nil {
		h = profile.NewHistogram(c.data.Bins)
		c.data.ByUID[in.UID] = h
	}
	if ok {
		h.Add(v)
	} else {
		h.AddUncheckable()
	}
}

// TestDenseCollectorMatchesMapOnly profiles every benchmark's Train input
// with the UID-indexed Collector and with the map-only reference: the two
// Data values must be deeply equal.
func TestDenseCollectorMatchesMapOnly(t *testing.T) {
	for _, w := range workloads.All() {
		t.Run(w.Name, func(t *testing.T) {
			if testing.Short() && w.Name != "kmeans" {
				t.Skip("short mode profiles kmeans only")
			}
			mod, err := w.Compile()
			if err != nil {
				t.Fatal(err)
			}
			profileWith := func(p vm.Profiler) {
				mach, err := vm.New(mod, vm.DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				if err := w.Bind(mach, workloads.Train); err != nil {
					t.Fatal(err)
				}
				mach.Reset()
				if res := mach.Run(vm.RunOptions{Profiler: p}); res.Trap != nil {
					t.Fatalf("profiling run trapped: %v", res.Trap)
				}
			}
			col := profile.NewCollector(profile.DefaultBins)
			profileWith(col)
			ref := &mapCollector{data: &profile.Data{Bins: profile.DefaultBins, ByUID: make(map[int]*profile.Histogram)}}
			profileWith(ref)
			if len(ref.data.ByUID) == 0 {
				t.Fatal("reference profile is empty")
			}
			if !reflect.DeepEqual(col.Data(), ref.data) {
				t.Fatalf("dense collector profile differs from the map-only reference (%d vs %d histograms)",
					len(col.Data().ByUID), len(ref.data.ByUID))
			}
		})
	}
}
