package shard

// mergeRuns k-way merges runs that are each ascending by seq into one
// ascending slice. It is the one place sharded reads restore insertion
// order: placement never moves a tuple, and every insert stamps the next
// store-wide Seq and appends to its replica's slab under the facade's write
// lock, so every replica's tuples (and every per-shard plan's rows) form a
// Seq-ascending run. Equal keys come out in run order, then in their order
// within the run: (seq, run, pos).
func mergeRuns[T any](runs [][]T, seq func(T) uint64) []T {
	n := 0
	for _, run := range runs {
		n += len(run)
	}
	out := make([]T, 0, n)
	pos := make([]int, len(runs))
	heads := make([]uint64, len(runs)) // seq of each run's next element
	for r, run := range runs {
		if len(run) > 0 {
			heads[r] = seq(run[0])
		}
	}
	for len(out) < n {
		best := -1
		for r, run := range runs {
			if pos[r] < len(run) && (best < 0 || heads[r] < heads[best]) {
				best = r
			}
		}
		run := runs[best]
		out = append(out, run[pos[best]])
		if pos[best]++; pos[best] < len(run) {
			heads[best] = seq(run[pos[best]])
		}
	}
	return out
}
