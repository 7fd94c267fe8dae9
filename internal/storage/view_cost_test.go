package storage

import (
	"math"
	"runtime"
	"testing"
)

// viewCost is one View's allocation count and bytes, each taken right after
// an 8-row Insert into a table of n rows: the least over 20 views, so an
// allocation elsewhere in the process cannot inflate it.
func viewCost(t *testing.T, n int) (allocs, bytes uint64) {
	t.Helper()
	tb := chunkTable(t, n)
	next := int64(n + 1)
	allocs, bytes = math.MaxUint64, math.MaxUint64
	var before, after runtime.MemStats
	for r := 0; r < 20; r++ {
		for i := 0; i < 8; i++ {
			if _, err := tb.Insert(mkTuple(next, 0)); err != nil {
				t.Fatal(err)
			}
			next++
		}
		runtime.ReadMemStats(&before)
		tb.View()
		runtime.ReadMemStats(&after)
		allocs = min(allocs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return allocs, bytes
}

// TestViewAllocsIndependentOfTableSize: a view copies chunk pointers, so at
// 65,536 rows it allocates what it does at 4,096 rows plus the longer
// chunk-pointer and seal slices (one pointer and one bool per chunk).
func TestViewAllocsIndependentOfTableSize(t *testing.T) {
	smallAllocs, smallBytes := viewCost(t, 4096)
	bigAllocs, bigBytes := viewCost(t, 65536)
	const extra = (65536 - 4096) / 1024 * (8 + 1)
	if bigAllocs > smallAllocs {
		t.Errorf("View allocs: %d at 65,536 rows, %d at 4,096", bigAllocs, smallAllocs)
	}
	if bigBytes > smallBytes+extra+64 {
		t.Errorf("View bytes: %d at 65,536 rows, %d at 4,096 (+%d for the slices)", bigBytes, smallBytes, extra)
	}
}

var viewSink *TableView

// BenchmarkTableView reports one View of a 32,768-row table after an 8-row
// Insert (view; the table is rebuilt every 128 views, so it stays within one
// chunk of 32,768 rows), and one point read through a view (get).
func BenchmarkTableView(b *testing.B) {
	const n = 32768
	b.Run("view", func(b *testing.B) {
		b.ReportAllocs()
		var tb *Table
		var next int64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if i%128 == 0 {
				tb, next = chunkTable(b, n), n+1
			}
			for j := 0; j < 8; j++ {
				if _, err := tb.Insert(mkTuple(next, 0)); err != nil {
					b.Fatal(err)
				}
				next++
			}
			b.StartTimer()
			viewSink = tb.View()
		}
	})
	b.Run("get", func(b *testing.B) {
		v := chunkTable(b, n).View()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if v.Get(int64(i%n+1)) == nil {
				b.Fatal("missing tuple")
			}
		}
	})
}
