package ssd

import "testing"

func BenchmarkDeviceRead(b *testing.B) {
	d, err := NewDevice(P5800X)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	now := int64(0)
	for i := 0; i < b.N; i++ {
		done, _ := d.Read(PageID(i%4096), now)
		now = done
	}
}

// BenchmarkQueueSaturated is the pipelined-worker pattern: a long burst of
// submissions with Outstanding polls and no intermediate Drain. Before the
// in-flight min-heap, Outstanding and Submit scanned every completion since
// the last Drain, so this pattern degraded quadratically with burst length.
func BenchmarkQueueSaturated(b *testing.B) {
	d, err := NewDevice(P5800X)
	if err != nil {
		b.Fatal(err)
	}
	q := NewQueue(d)
	b.ReportAllocs()
	b.ResetTimer()
	now := int64(0)
	const burst = 4096
	for i := 0; i < b.N; i++ {
		issue := q.Submit(PageID(i%8192), now)
		if issue > now {
			now = issue
		}
		q.Outstanding(now)
		if (i+1)%burst == 0 {
			now, _ = q.Drain(now)
		}
	}
}

func BenchmarkQueueSubmitDrain(b *testing.B) {
	d, err := NewDevice(P5800X)
	if err != nil {
		b.Fatal(err)
	}
	q := NewQueue(d)
	b.ReportAllocs()
	b.ResetTimer()
	now := int64(0)
	for i := 0; i < b.N; i++ {
		for j := 0; j < 8; j++ {
			q.Submit(PageID((i*8+j)%4096), now)
		}
		now, _ = q.Drain(now)
	}
}

// BenchmarkFileQueueDrain measures one queue pair's submit→drain cycle on
// the file backend, per executor: 25-page batches striped over 4 shard
// files, buffers released after each drain. ns/page is the host cost of
// one page read through the executor; steady state allocates nothing.
func BenchmarkFileQueueDrain(b *testing.B) {
	for _, force := range []bool{false, true} {
		name := "executor=io_uring"
		if force {
			name = "executor=pread"
		}
		b.Run(name, func(b *testing.B) {
			files, _, _ := buildBackendFilesN(b, 4, 8000)
			fb, err := NewFileBackend(files, FileBackendConfig{ForcePread: force})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { fb.Close() })
			if !force && fb.ExecutorKind() != "io_uring" {
				b.Skipf("io_uring unavailable here (executor %s)", fb.ExecutorKind())
			}
			const batch = 25
			qp := fb.NewQueuePair()
			next := 0
			run := func() {
				now := fb.Frontier()
				for j := 0; j < batch; j++ {
					qp.Submit(PageID(next), now)
					next = (next + 7) % fb.NumPages()
				}
				_, comps := qp.Drain(now)
				for _, c := range comps {
					if c.Err != nil {
						b.Fatal(c.Err)
					}
					c.Buf.Release()
				}
			}
			for i := 0; i < 50; i++ {
				run()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/page")
		})
	}
}
