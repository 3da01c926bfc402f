package bench

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestScheduleIsSeedDeterministic(t *testing.T) {
	mix := JobMix()
	a := Schedule(7, 500, ServeRate, mix)
	if b := Schedule(7, 500, ServeRate, mix); !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew two different schedules")
	}
	if c := Schedule(8, 500, ServeRate, mix); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds drew the same schedule")
	}
	// Tenants and kinds come from their own streams: the closed loop
	// (rate 0) draws the same jobs as the open loop at any rate.
	closed := Schedule(7, 500, 0, mix)
	for i := range a {
		if a[i].Tenant != closed[i].Tenant || a[i].Kind != closed[i].Kind {
			t.Fatalf("draw %d depends on the rate: %+v vs %+v", i, a[i], closed[i])
		}
		if closed[i].Due != 0 {
			t.Fatalf("closed-loop draw %d has due time %v", i, closed[i].Due)
		}
	}
}

func TestScheduleFollowsMixZipfAndPoisson(t *testing.T) {
	mix := JobMix()
	const n = 20000
	ds := Schedule(3, n, ServeRate, mix)
	kinds := make([]int, len(mix))
	tenants := map[string]int{}
	for i, d := range ds {
		kinds[d.Kind]++
		tenants[d.Tenant]++
		if i > 0 && d.Due < ds[i-1].Due {
			t.Fatalf("due times not monotone at %d", i)
		}
	}
	total := 0
	for k, kind := range mix {
		total += kind.Percent
		if got := 100 * float64(kinds[k]) / n; math.Abs(got-float64(kind.Percent)) > 1.5 {
			t.Errorf("kind %s drawn %.1f%%, want %d%%", kind.Name, got, kind.Percent)
		}
	}
	if total != 100 {
		t.Errorf("mix percentages sum to %d", total)
	}
	if len(tenants) != serveTenants {
		t.Errorf("drew %d tenants, want %d", len(tenants), serveTenants)
	}
	if tenants["tenant-0"] <= tenants["tenant-1"] || tenants["tenant-1"] <= tenants["tenant-5"] {
		t.Errorf("tenant counts not Zipf-skewed: %v", tenants)
	}
	mean := ds[n-1].Due.Seconds() / n
	if want := 1.0 / ServeRate; math.Abs(mean-want)/want > 0.03 {
		t.Errorf("mean interarrival %v, want %v", time.Duration(mean*1e9), time.Duration(want*1e9))
	}
}
