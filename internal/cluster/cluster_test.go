package cluster

import (
	"math"
	"testing"
)

func TestTable1Values(t *testing.T) {
	t1 := Testbed1()
	if t1.GPUsPerNode != 4 || t1.GPU.Name != "H100-80GB" {
		t.Errorf("testbed1 GPUs wrong: %+v", t1.GPU)
	}
	if t1.GPU.D2HBandwidth != 55*GB {
		t.Errorf("testbed1 D2H = %g", t1.GPU.D2HBandwidth)
	}
	if t1.CPUCores != 96 || t1.HostMemBytes != 512*GiB {
		t.Errorf("testbed1 CPU/mem wrong")
	}
	if t1.NVMe.ReadBW != 6.9*GB || t1.NVMe.WriteBW != 5.3*GB {
		t.Errorf("testbed1 NVMe = %g/%g", t1.NVMe.ReadBW, t1.NVMe.WriteBW)
	}
	if t1.PFS.ReadBW != 3.6*GB || t1.PFS.WriteBW != 3.6*GB {
		t.Errorf("testbed1 PFS = %g/%g", t1.PFS.ReadBW, t1.PFS.WriteBW)
	}

	t2 := Testbed2()
	if t2.GPU.D2HBandwidth != 25*GB || t2.CPUCores != 32 {
		t.Errorf("testbed2 wrong: %+v", t2)
	}
	if t2.NVMe.ReadBW != 13.5*GB || t2.NVMe.WriteBW != 4.8*GB {
		t.Errorf("testbed2 NVMe = %g/%g", t2.NVMe.ReadBW, t2.NVMe.WriteBW)
	}
	if t2.PFS.ReadBW != 6.9*GB || t2.PFS.WriteBW != 13.7*GB {
		t.Errorf("testbed2 PFS = %g/%g", t2.PFS.ReadBW, t2.PFS.WriteBW)
	}
}

func TestMinBW(t *testing.T) {
	s := StorageTierSpec{ReadBW: 10, WriteBW: 5}
	if s.MinBW() != 5 {
		t.Errorf("MinBW = %g", s.MinBW())
	}
	s = StorageTierSpec{ReadBW: 3, WriteBW: 5}
	if s.MinBW() != 3 {
		t.Errorf("MinBW = %g", s.MinBW())
	}
}

func TestHostMemRatios(t *testing.T) {
	// Paper: host:GPU memory ratios are 1.6:1 (Testbed-1) and 3.2:1
	// (Testbed-2).
	t1 := Testbed1()
	r1 := float64(t1.HostMemBytes) / float64(t1.AggregateGPUMem())
	if math.Abs(r1-1.6) > 0.01 {
		t.Errorf("testbed1 host:GPU = %.2f, want 1.6", r1)
	}
	t2 := Testbed2()
	r2 := float64(t2.HostMemBytes) / float64(t2.AggregateGPUMem())
	if math.Abs(r2-3.2) > 0.01 {
		t.Errorf("testbed2 host:GPU = %.2f, want 3.2", r2)
	}
}

func TestRuntimeReservedInterpolation(t *testing.T) {
	tb := Testbed1()
	lo := tb.RuntimeReservedHostBytes(40e9)
	hi := tb.RuntimeReservedHostBytes(120e9)
	if lo != 300*GiB {
		t.Errorf("reserved@40B = %d GiB, want 300", lo/GiB)
	}
	if hi != 350*GiB {
		t.Errorf("reserved@120B = %d GiB", hi/GiB)
	}
	mid := tb.RuntimeReservedHostBytes(80e9)
	if mid <= lo || mid >= hi {
		t.Errorf("reserved@80B = %d GiB not between", mid/GiB)
	}
	// Clamped outside the range.
	if tb.RuntimeReservedHostBytes(10e9) != lo || tb.RuntimeReservedHostBytes(300e9) != hi {
		t.Error("reservation not clamped")
	}
}

func TestHostCacheBytesNonNegative(t *testing.T) {
	tb := Testbed1()
	got := tb.HostCacheBytes(120e9, true)
	if got < 0 {
		t.Errorf("HostCacheBytes negative: %d", got)
	}
	// Keeping FP16 grads on host must reduce the cache budget by 2B/param.
	with := tb.HostCacheBytes(40e9, true)
	without := tb.HostCacheBytes(40e9, false)
	if without-with != 40e9*2 {
		t.Errorf("fp16 grad reservation = %d, want %d", without-with, int64(40e9*2))
	}
}

func TestCollectiveTime(t *testing.T) {
	if CollectiveTime(1000, 1, 100) != 0 {
		t.Error("single participant should cost 0")
	}
	got := CollectiveTime(1000, 4, 100)
	want := 0.75 * 1000 / 100
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("collective = %g, want %g", got, want)
	}
	if CollectiveTime(1000, 4, 0) != 0 {
		t.Error("zero bandwidth should cost 0 (treated as local)")
	}
}

func TestCacheShrinksWithModel(t *testing.T) {
	tb := Testbed1()
	prev := tb.HostCacheBytes(40e9, true)
	for _, p := range []int64{52e9, 70e9, 100e9, 120e9} {
		cur := tb.HostCacheBytes(p, true)
		if cur > prev {
			t.Errorf("host cache grew from %d to %d at %dB params", prev, cur, p)
		}
		prev = cur
	}
}
