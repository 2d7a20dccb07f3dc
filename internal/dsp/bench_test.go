package dsp

import "testing"

func benchFFTPlan(b *testing.B, n int) {
	p := PlanFFT(n)
	x := randSignal(n, uint64(n))
	b.ReportAllocs()
	b.SetBytes(int64(16 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(x)
	}
}

func BenchmarkFFTPlanForward256(b *testing.B)  { benchFFTPlan(b, 256) }
func BenchmarkFFTPlanForward1024(b *testing.B) { benchFFTPlan(b, 1024) }
func BenchmarkFFTPlanForward4096(b *testing.B) { benchFFTPlan(b, 4096) }

func BenchmarkFFTPlanRoundTrip1024(b *testing.B) {
	p := PlanFFT(1024)
	x := randSignal(1024, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(x)
		p.Inverse(x)
	}
}

func BenchmarkOverlapSaveApplyFull(b *testing.B) {
	h := randSignal(129, 1)
	x := randSignal(16384, 2)
	o := NewOverlapSave(h)
	var dst []complex128
	b.ReportAllocs()
	b.SetBytes(int64(16 * len(x)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = o.ApplyFull(dst[:0], x)
	}
}
