package shard

import (
	"enrichdb/internal/expr"
	"enrichdb/internal/storage"
	"enrichdb/internal/types"
)

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

// mergeChunks merges the relations' tuples (a nil relation holds none) by
// mergeSeq's order into new chunks of expr.BatchSize lanes over ncols
// columns.
func mergeChunks(ncols int, rels []storage.Relation) []*expr.Chunk {
	runs := make([][]*types.Tuple, len(rels))
	lens := make([]int, len(rels))
	n := 0
	for r, rel := range rels {
		if rel != nil {
			runs[r] = storage.Tuples(rel)
		}
		lens[r] = len(runs[r])
		n += lens[r]
	}
	all := make([]*types.Tuple, 0, n)
	mergeSeq(lens, func(r, p int) uint64 { return runs[r][p].Seq }, func(r, p int) {
		all = append(all, runs[r][p])
	})
	var out []*expr.Chunk
	for lo := 0; lo < n; lo += expr.BatchSize {
		hi := min(lo+expr.BatchSize, n)
		out = append(out, expr.NewChunk(all[lo:hi:hi], ncols))
	}
	return out
}
