package obs

import (
	"testing"
	"time"
)

// The nil-observer fast path is the cost every producer pays when
// observability is disabled: it must be a nil check and a branch, nothing
// more. Run with -benchmem to confirm 0 allocs/op.

func BenchmarkNilObserverSpan(b *testing.B) {
	var o *Observer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := o.StartSpan("x")
		sp.SetAttr("a", 1)
		sp.End()
	}
}

func BenchmarkNilObserverRecordIteration(b *testing.B) {
	var o *Observer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.RecordIteration(IterStats{Iter: i})
	}
}

func BenchmarkNilObserverRecordCG(b *testing.B) {
	var o *Observer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.RecordCG(10, 1e-7, true)
		o.AddSeconds(MetricCGSeconds, time.Millisecond)
	}
}

func BenchmarkEnabledSpan(b *testing.B) {
	o := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := o.StartSpan("x")
		sp.End()
	}
	b.StopTimer()
	o.Reset()
}

func BenchmarkEnabledCounterAdd(b *testing.B) {
	o := New()
	c := o.Counter(MetricCGIterations)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkEnabledRecordIteration(b *testing.B) {
	o := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.RecordIteration(IterStats{Iter: i, Phi: 1, Overflow: 0.5})
	}
}
