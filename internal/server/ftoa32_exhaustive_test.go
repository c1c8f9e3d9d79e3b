//go:build exhaustive

package server

import (
	"bytes"
	"math"
	"runtime"
	"strconv"
	"sync"
	"testing"
)

// TestAppendFloat32Exhaustive compares appendFloat32 with strconv on all
// 2^32 float32 bit patterns. It takes minutes; run it with
// `make ftoa-exhaustive`.
func TestAppendFloat32Exhaustive(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	const total = 1 << 32
	var (
		wg         sync.WaitGroup
		mu         sync.Mutex
		mismatches int
		first      []string
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lo, hi uint64) {
			defer wg.Done()
			var got, want []byte
			bad := 0
			for b := lo; b < hi; b++ {
				v := math.Float32frombits(uint32(b))
				got = appendFloat32(got[:0], v)
				want = strconv.AppendFloat(want[:0], float64(v), 'g', -1, 32)
				if !bytes.Equal(got, want) {
					bad++
					mu.Lock()
					if len(first) < 10 {
						first = append(first, strconv.Quote(string(got))+" != "+strconv.Quote(string(want))+
							" for bits "+strconv.FormatUint(b, 16))
					}
					mu.Unlock()
				}
			}
			mu.Lock()
			mismatches += bad
			mu.Unlock()
		}(total*uint64(w)/uint64(workers), total*uint64(w+1)/uint64(workers))
	}
	wg.Wait()
	t.Logf("checked %d float32 bit patterns, %d mismatches", uint64(total), mismatches)
	if mismatches != 0 {
		t.Fatalf("%d mismatches, first: %v", mismatches, first)
	}
}
