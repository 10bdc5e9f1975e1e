package resource

import (
	"errors"
	"math"
	"testing"

	"aladdin/internal/quickseed"
)

func TestCoresConstructor(t *testing.T) {
	v := Cores(4, 8192)
	if v.CPUMilli != 4000 {
		t.Errorf("CPUMilli = %d, want 4000", v.CPUMilli)
	}
	if v.MemMB != 8192 {
		t.Errorf("MemMB = %d, want 8192", v.MemMB)
	}
}

func TestMilliConstructor(t *testing.T) {
	v := Milli(250, 512)
	if v.CPUMilli != 250 || v.MemMB != 512 {
		t.Errorf("Milli(250,512) = %+v", v)
	}
}

func TestZero(t *testing.T) {
	if !(Vector{}).Zero() {
		t.Error("zero value should report Zero()")
	}
	if Cores(1, 0).Zero() {
		t.Error("non-zero CPU should not report Zero()")
	}
	if Milli(0, 1).Zero() {
		t.Error("non-zero memory should not report Zero()")
	}
}

func TestAddSub(t *testing.T) {
	a := Cores(2, 1024)
	b := Cores(1, 512)
	sum := a.Add(b)
	if sum != Cores(3, 1536) {
		t.Errorf("Add = %v", sum)
	}
	diff := a.Sub(b)
	if diff != Cores(1, 512) {
		t.Errorf("Sub = %v", diff)
	}
	neg := b.Sub(a)
	if neg.CPUMilli != -1000 || neg.MemMB != -512 {
		t.Errorf("Sub underflow = %v", neg)
	}
}

func TestSubChecked(t *testing.T) {
	a := Cores(2, 1024)
	b := Cores(1, 512)
	if _, err := a.SubChecked(b); err != nil {
		t.Errorf("SubChecked ok case: %v", err)
	}
	if _, err := b.SubChecked(a); !errors.Is(err, ErrNegative) {
		t.Errorf("SubChecked underflow err = %v, want ErrNegative", err)
	}
	// Underflow on a single dimension must also fail.
	c := Milli(500, 2048)
	if _, err := a.SubChecked(c); !errors.Is(err, ErrNegative) {
		t.Errorf("SubChecked single-dim underflow err = %v", err)
	}
}

func TestScale(t *testing.T) {
	v := Cores(2, 100).Scale(3)
	if v != Cores(6, 300) {
		t.Errorf("Scale = %v", v)
	}
	if got := Cores(2, 100).Scale(0); !got.Zero() {
		t.Errorf("Scale(0) = %v", got)
	}
}

func TestFits(t *testing.T) {
	machine := Cores(32, 65536)
	cases := []struct {
		demand Vector
		want   bool
	}{
		{Cores(16, 32768), true},
		{Cores(32, 65536), true},
		{Cores(33, 0), false},
		{Cores(0, 65537), false},
		{Vector{}, true},
	}
	for _, c := range cases {
		if got := c.demand.Fits(machine); got != c.want {
			t.Errorf("Fits(%v, %v) = %v, want %v", c.demand, machine, got, c.want)
		}
	}
}

func TestDominates(t *testing.T) {
	if !Cores(4, 400).Dominates(Cores(4, 400)) {
		t.Error("vector should dominate itself")
	}
	if !Cores(4, 400).Dominates(Cores(3, 100)) {
		t.Error("strictly larger should dominate")
	}
	if Cores(4, 100).Dominates(Cores(3, 200)) {
		t.Error("mixed comparison should not dominate")
	}
}

func TestMaxMin(t *testing.T) {
	a, b := Milli(100, 900), Milli(800, 200)
	if got := a.Max(b); got != Milli(800, 900) {
		t.Errorf("Max = %v", got)
	}
	if got := a.Min(b); got != Milli(100, 200) {
		t.Errorf("Min = %v", got)
	}
}

func TestDominantShare(t *testing.T) {
	capacity := Cores(32, 64*1024)
	v := Cores(16, 1024) // CPU half full, memory small
	if got := v.DominantShare(capacity); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("DominantShare = %v, want 0.5", got)
	}
	// Zero capacity with demand saturates.
	if got := Cores(1, 0).DominantShare(Vector{}); got != 1 {
		t.Errorf("DominantShare vs zero capacity = %v, want 1", got)
	}
	if got := (Vector{}).DominantShare(Vector{}); got != 0 {
		t.Errorf("DominantShare zero/zero = %v, want 0", got)
	}
}

func TestUtilization(t *testing.T) {
	capacity := Cores(10, 1000)
	used := Cores(5, 250)
	// mean of 0.5 and 0.25
	if got := Utilization(used, capacity); math.Abs(got-0.375) > 1e-9 {
		t.Errorf("Utilization = %v, want 0.375", got)
	}
	if got := Utilization(used, Vector{}); got != 0 {
		t.Errorf("Utilization vs zero capacity = %v, want 0", got)
	}
}

func TestCPUUtilization(t *testing.T) {
	if got := CPUUtilization(Cores(8, 0), Cores(32, 64)); math.Abs(got-0.25) > 1e-9 {
		t.Errorf("CPUUtilization = %v", got)
	}
}

func TestString(t *testing.T) {
	if got := Cores(4, 8192).String(); got != "4c/8192MB" {
		t.Errorf("String = %q", got)
	}
	if got := Milli(250, 64).String(); got != "250m/64MB" {
		t.Errorf("String = %q", got)
	}
}

func TestDimAccessors(t *testing.T) {
	v := Milli(123, 456)
	if v.Dim(CPU) != 123 || v.Dim(Memory) != 456 {
		t.Errorf("Dim accessors: %v", v)
	}
	if v.Dim(Dimension(99)) != 0 {
		t.Error("unknown dimension should read 0")
	}
	v2 := v.WithDim(CPU, 999)
	if v2.Dim(CPU) != 999 || v2.Dim(Memory) != 456 {
		t.Errorf("WithDim: %v", v2)
	}
	if v.Dim(CPU) != 123 {
		t.Error("WithDim must not mutate the receiver")
	}
	if got := v.WithDim(Dimension(99), 5); got != v {
		t.Errorf("WithDim unknown dimension changed vector: %v", got)
	}
}

func TestDimensionString(t *testing.T) {
	if CPU.String() != "cpu" || Memory.String() != "mem" {
		t.Error("dimension names")
	}
	if Dimension(7).String() != "dim(7)" {
		t.Errorf("unknown dimension name = %q", Dimension(7).String())
	}
}

func TestSum(t *testing.T) {
	vs := []Vector{Cores(1, 10), Cores(2, 20), Cores(3, 30)}
	if got := Sum(vs); got != Cores(6, 60) {
		t.Errorf("Sum = %v", got)
	}
	if got := Sum(nil); !got.Zero() {
		t.Errorf("Sum(nil) = %v", got)
	}
}

// clamp keeps quick-generated values in a range where arithmetic
// cannot overflow int64.
func clamp(x int64) int64 {
	if x < 0 {
		x = -x
	}
	return x % (1 << 30)
}

func clampVec(v Vector) Vector {
	return Vector{CPUMilli: clamp(v.CPUMilli), MemMB: clamp(v.MemMB)}
}

func TestQuickAddCommutative(t *testing.T) {
	f := func(a, b Vector) bool {
		a, b = clampVec(a), clampVec(b)
		return a.Add(b) == b.Add(a)
	}
	quickseed.Check(t, f, 0)
}

func TestQuickAddSubRoundTrip(t *testing.T) {
	f := func(a, b Vector) bool {
		a, b = clampVec(a), clampVec(b)
		return a.Add(b).Sub(b) == a
	}
	quickseed.Check(t, f, 0)
}

func TestQuickFitsAntisymmetry(t *testing.T) {
	// If a fits in b and b fits in a then they are equal.
	f := func(a, b Vector) bool {
		a, b = clampVec(a), clampVec(b)
		if a.Fits(b) && b.Fits(a) {
			return a == b
		}
		return true
	}
	quickseed.Check(t, f, 0)
}

func TestQuickFitsMonotone(t *testing.T) {
	// Adding demand never makes something fit that did not fit.
	f := func(a, extra, cap Vector) bool {
		a, extra, cap = clampVec(a), clampVec(extra), clampVec(cap)
		if !a.Fits(cap) {
			return !a.Add(extra).Fits(cap)
		}
		return true
	}
	quickseed.Check(t, f, 0)
}

func TestQuickDominantShareBounds(t *testing.T) {
	f := func(a, cap Vector) bool {
		a, cap = clampVec(a), clampVec(cap)
		s := a.DominantShare(cap)
		if s < 0 {
			return false
		}
		// If a fits, the share is at most 1.
		if a.Fits(cap) && s > 1 {
			return false
		}
		return true
	}
	quickseed.Check(t, f, 0)
}

func TestQuickMaxDominates(t *testing.T) {
	f := func(a, b Vector) bool {
		a, b = clampVec(a), clampVec(b)
		m := a.Max(b)
		return m.Dominates(a) && m.Dominates(b)
	}
	quickseed.Check(t, f, 0)
}
