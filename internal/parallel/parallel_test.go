package parallel

import (
	"sync/atomic"
	"testing"

	"aladdin/internal/quickseed"
)

func TestForEachCoversAllIndices(t *testing.T) {
	const n = 1000
	seen := make([]atomic.Bool, n)
	ForEach(n, 8, func(i int) {
		if seen[i].Swap(true) {
			t.Errorf("index %d visited twice", i)
		}
	})
	for i := range seen {
		if !seen[i].Load() {
			t.Fatalf("index %d not visited", i)
		}
	}
}

func TestForEachEdgeCases(t *testing.T) {
	calls := 0
	ForEach(0, 4, func(int) { calls++ })
	ForEach(-5, 4, func(int) { calls++ })
	if calls != 0 {
		t.Error("no calls expected for n <= 0")
	}
	// Single worker path.
	var order []int
	ForEach(5, 1, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Errorf("single worker should be sequential: %v", order)
		}
	}
	// More workers than items.
	var count atomic.Int64
	ForEach(3, 64, func(int) { count.Add(1) })
	if count.Load() != 3 {
		t.Errorf("count = %d", count.Load())
	}
	// Default workers.
	count.Store(0)
	ForEach(100, 0, func(int) { count.Add(1) })
	if count.Load() != 100 {
		t.Errorf("count = %d", count.Load())
	}
}

func TestMapOrdered(t *testing.T) {
	out := Map(50, 4, func(i int) int { return i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestPool(t *testing.T) {
	p := NewPool(4, 8)
	defer p.Close()
	var sum atomic.Int64
	for i := 1; i <= 100; i++ {
		i := i
		p.Submit(func() { sum.Add(int64(i)) })
	}
	p.Wait()
	if sum.Load() != 5050 {
		t.Errorf("sum = %d", sum.Load())
	}
	// Pool is reusable after Wait.
	p.Submit(func() { sum.Add(1) })
	p.Wait()
	if sum.Load() != 5051 {
		t.Errorf("sum after reuse = %d", sum.Load())
	}
}

func TestPoolDefaults(t *testing.T) {
	p := NewPool(0, 0)
	defer p.Close()
	done := make(chan struct{})
	p.Submit(func() { close(done) })
	<-done
	p.Wait()
}

func TestCounter(t *testing.T) {
	c := NewCounter()
	ForEach(64, 8, func(i int) {
		h := c.Handle()
		for j := 0; j < 100; j++ {
			h.Add(1)
		}
	})
	if got := c.Sum(); got != 6400 {
		t.Errorf("Sum = %d, want 6400", got)
	}
	c.Add(-400)
	if got := c.Sum(); got != 6000 {
		t.Errorf("Sum = %d, want 6000", got)
	}
}

func TestQuickCounterSum(t *testing.T) {
	f := func(deltas []int16) bool {
		c := NewCounter()
		var want int64
		ForEach(len(deltas), 4, func(i int) {
			c.Add(int64(deltas[i]))
		})
		for _, d := range deltas {
			want += int64(d)
		}
		return c.Sum() == want
	}
	quickseed.Check(t, f, 100)
}
