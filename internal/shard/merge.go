package shard

// mergeSeq visits the elements of runs that are each ascending by seq in
// one ascending order, calling emit(run, pos) for each; lens[r] is run r's
// length and seq(r, pos) its element's key. It is the one place sharded
// reads restore insertion order: placement never moves a tuple, and every
// insert stamps the next store-wide Seq and appends to its replica's slab
// under the facade's write lock, so every replica's tuples (and every
// per-shard plan's answer) form a Seq-ascending run. Equal keys come out in
// run order, then in their order within the run: (seq, run, pos).
func mergeSeq(lens []int, seq func(r, pos int) uint64, emit func(r, pos int)) {
	n := 0
	for _, l := range lens {
		n += l
	}
	pos := make([]int, len(lens))
	heads := make([]uint64, len(lens)) // seq of each run's next element
	for r, l := range lens {
		if l > 0 {
			heads[r] = seq(r, 0)
		}
	}
	for ; n > 0; n-- {
		best := -1
		for r, l := range lens {
			if pos[r] < l && (best < 0 || heads[r] < heads[best]) {
				best = r
			}
		}
		emit(best, pos[best])
		if pos[best]++; pos[best] < lens[best] {
			heads[best] = seq(best, pos[best])
		}
	}
}

// mergeRuns merges runs of elements by mergeSeq's order into one slice.
func mergeRuns[T any](runs [][]T, seq func(T) uint64) []T {
	lens := make([]int, len(runs))
	n := 0
	for r, run := range runs {
		lens[r] = len(run)
		n += len(run)
	}
	out := make([]T, 0, n)
	mergeSeq(lens, func(r, p int) uint64 { return seq(runs[r][p]) }, func(r, p int) {
		out = append(out, runs[r][p])
	})
	return out
}
