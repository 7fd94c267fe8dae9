package enrich

import (
	"fmt"
	"sync"

	"enrichdb/internal/types"
)

// Output is the stored result of one enrichment function execution. With a
// state cutoff (§3.2), probabilities below the threshold are pruned from
// storage; Pruned records that the stored distribution is partial.
type Output struct {
	// Probs has the domain's length; pruned entries are negative.
	Probs  []float64
	Pruned bool
}

const prunedMark = -1

// RetainedMass sums the stored (non-pruned) probabilities.
func (o *Output) RetainedMass() float64 {
	s := 0.0
	for _, p := range o.Probs {
		if p >= 0 {
			s += p
		}
	}
	return s
}

// Effective returns the distribution with pruned entries as zero.
func (o *Output) Effective() []float64 {
	if !o.Pruned {
		return o.Probs
	}
	out := make([]float64, len(o.Probs))
	for i, p := range o.Probs {
		if p >= 0 {
			out[i] = p
		}
	}
	return out
}

// AttrState is the state of one derived attribute of one tuple (§3.1): the
// bitmap of executed functions, their outputs, and the current determined
// value (the paper's AValue column).
type AttrState struct {
	Bitmap  uint64
	Outputs []*Output // indexed by function ID; nil = not executed
	Value   types.Value
}

// StateTable holds the enrichment state of every tuple of one relation
// (the paper's R_State table). It is safe for concurrent use.
type StateTable struct {
	Relation string

	mu       sync.RWMutex
	attrs    []string
	attrIdx  map[string]int
	families []*Family
	cutoff   float64
	rows     map[int64][]*AttrState
	// gens tracks, per tuple, the fixed-data generation the stored state
	// belongs to (absent = generation 0, matching freshly inserted tuples).
	// Generation-guarded writes compare against it so a session that computed
	// enrichment from a superseded tuple image cannot clobber state that was
	// reset by a newer committed write (§3.3.5 under concurrency).
	gens map[int64]uint64
}

// newStateTable creates an empty state table.
func newStateTable(relation string) *StateTable {
	return &StateTable{
		Relation: relation,
		attrIdx:  make(map[string]int),
		rows:     make(map[int64][]*AttrState),
		gens:     make(map[int64]uint64),
	}
}

// addFamily registers a derived attribute's family with the table.
func (st *StateTable) addFamily(fam *Family) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, dup := st.attrIdx[fam.Attr]; dup {
		return fmt.Errorf("enrich: family for %s.%s already registered", fam.Relation, fam.Attr)
	}
	if len(st.rows) > 0 {
		return fmt.Errorf("enrich: cannot add family %s.%s after state exists", fam.Relation, fam.Attr)
	}
	st.attrIdx[fam.Attr] = len(st.attrs)
	st.attrs = append(st.attrs, fam.Attr)
	st.families = append(st.families, fam)
	return nil
}

// SetCutoff sets the state-cutoff threshold (0 disables pruning). It only
// affects outputs stored afterwards.
func (st *StateTable) SetCutoff(c float64) {
	st.mu.Lock()
	st.cutoff = c
	st.mu.Unlock()
}

// Get returns the state of (tid, attr), or nil when nothing was stored,
// whatever image it belongs to. The returned pointer shares the table's
// storage; callers must treat it as read-only, and concurrent writers make
// even reads racy — concurrent code reads through the manager, whose
// accessors are generation-guarded and read under the table lock.
func (st *StateTable) Get(tid int64, attr string) *AttrState {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.locked(tid, attr)
}

// ensure returns the mutable state of (tid, attr), allocating as needed.
// Caller must hold st.mu.
func (st *StateTable) ensure(tid int64, ai int) *AttrState {
	row := st.rows[tid]
	if row == nil {
		row = make([]*AttrState, len(st.attrs))
		st.rows[tid] = row
	}
	if row[ai] == nil {
		row[ai] = &AttrState{Outputs: make([]*Output, len(st.families[ai].Functions))}
	}
	return row[ai]
}

// setOutputs records function outputs, each computed from the tuple image
// at its Gen, under one lock: applying the cutoff, it marks each function
// executed and counts the outputs stored and those dropped as stale (a newer
// committed write superseded their generation). Within one generation the
// first write per (tid, attr, fnID) wins: a second write finds the bitmap
// bit set and counts as neither, without touching the state, which makes
// concurrent duplicate enrichments (two epoch workers racing on a
// self-join's shared tuple) collapse to one deterministic write. The first
// invalid output stops the batch.
func (st *StateTable) setOutputs(outs []FnOutput) (stored, stale int64, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, o := range outs {
		ai, ok := st.attrIdx[o.Attr]
		if !ok {
			return stored, stale, fmt.Errorf("enrich: %s has no derived attribute %s", st.Relation, o.Attr)
		}
		if o.FnID < 0 || o.FnID >= len(st.families[ai].Functions) {
			return stored, stale, fmt.Errorf("enrich: %s.%s has no function %d", st.Relation, o.Attr, o.FnID)
		}
		if st.gens[o.TID] != o.Gen {
			stale++
			continue
		}
		s := st.ensure(o.TID, ai)
		if s.Bitmap&(1<<uint(o.FnID)) != 0 {
			continue
		}
		out := &Output{Probs: make([]float64, len(o.Probs))}
		for i, p := range o.Probs {
			if st.cutoff > 0 && p < st.cutoff {
				out.Probs[i] = prunedMark
				out.Pruned = true
			} else {
				out.Probs[i] = p
			}
		}
		s.Outputs[o.FnID] = out
		s.Bitmap |= 1 << uint(o.FnID)
		stored++
	}
	return stored, stale, nil
}

// slotState is one write-back slot's state as the batch sees it: outs is a
// copy of the per-function outputs when the state belongs to the slot's
// image (current) and holds any; write, complete and stale are the batch's
// decisions for the slot.
type slotState struct {
	outs                   []*Output
	current                bool
	write, complete, stale bool
}

// snapshotSlots reads every slot's state under one read lock. Generation
// and outputs are read together, so a commit resetting a tuple cannot slip
// between the check and the copy and make an emptied state look like
// "nothing executed yet" for the slot's image. Output structs are immutable
// once published, so the copies are consistent snapshots.
func (st *StateTable) snapshotSlots(slots []WriteBackSlot) []slotState {
	states := make([]slotState, len(slots))
	st.mu.RLock()
	defer st.mu.RUnlock()
	n := 0
	for _, sl := range slots {
		if s := st.locked(sl.Tuple.ID, sl.Attr); s != nil {
			n += len(s.Outputs)
		}
	}
	buf := make([]*Output, n)
	for i, sl := range slots {
		if st.gens[sl.Tuple.ID] != sl.Tuple.Gen {
			continue
		}
		states[i].current = true
		if s := st.locked(sl.Tuple.ID, sl.Attr); s != nil {
			states[i].outs = buf[:len(s.Outputs):len(s.Outputs)]
			buf = buf[copy(buf, s.Outputs):]
		}
	}
	return states
}

// setValues stores, under one lock, the value of every slot determinized
// from its current state; a slot whose generation a newer committed write
// superseded meanwhile is marked stale and not stored.
func (st *StateTable) setValues(slots []WriteBackSlot, states []slotState) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	for i, sl := range slots {
		ss := &states[i]
		if !ss.write || !ss.current {
			continue
		}
		ai, ok := st.attrIdx[sl.Attr]
		if !ok {
			return fmt.Errorf("enrich: %s has no derived attribute %s", st.Relation, sl.Attr)
		}
		if st.gens[sl.Tuple.ID] != sl.Tuple.Gen {
			ss.stale = true
			continue
		}
		st.ensure(sl.Tuple.ID, ai).Value = sl.Value
	}
	return nil
}

// GenOf returns the fixed-data generation the tuple's state belongs to.
func (st *StateTable) GenOf(tid int64) uint64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.gens[tid]
}

// BitmapAt returns the executed-function bitmap of (tid, attr) for the
// tuple image at gen: zero when nothing ran or the state belongs to another
// image. The generation and the bitmap are read under one lock.
func (st *StateTable) BitmapAt(tid int64, attr string, gen uint64) uint64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if s := st.locked(tid, attr); s != nil && st.gens[tid] == gen {
		return s.Bitmap
	}
	return 0
}

// outputAt returns the stored output of function fnID for (tid, attr) at
// the tuple image at gen, or nil when it did not run for that image.
func (st *StateTable) outputAt(tid int64, attr string, fnID int, gen uint64) *Output {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if s := st.locked(tid, attr); s != nil && st.gens[tid] == gen && fnID >= 0 && fnID < len(s.Outputs) {
		return s.Outputs[fnID]
	}
	return nil
}

// valueAt returns the determined value of (tid, attr) for the tuple image at
// gen: NULL when none was stored or the state belongs to another image.
func (st *StateTable) valueAt(tid int64, attr string, gen uint64) types.Value {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if s := st.locked(tid, attr); s != nil && st.gens[tid] == gen {
		return s.Value
	}
	return types.Null
}

// OutputSnapshotAt returns a copy of the per-function output slice of
// (tid, attr) for the tuple image at gen (nil when no state exists): current
// is false, and nothing is returned, when the state belongs to another
// generation. Generation and outputs are read under one lock, so a commit
// resetting the tuple cannot slip between the check and the copy and make an
// emptied state look like "nothing executed yet" for the caller's image.
// Output structs are immutable once published, so the copy is a consistent
// snapshot concurrent determinization can read freely.
func (st *StateTable) OutputSnapshotAt(tid int64, attr string, gen uint64) (out []*Output, current bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if st.gens[tid] != gen {
		return nil, false
	}
	if s := st.locked(tid, attr); s != nil {
		out = make([]*Output, len(s.Outputs))
		copy(out, s.Outputs)
	}
	return out, true
}

// locked is Get without locking; caller must hold st.mu.
func (st *StateTable) locked(tid int64, attr string) *AttrState {
	ai, ok := st.attrIdx[attr]
	if !ok {
		return nil
	}
	row := st.rows[tid]
	if row == nil {
		return nil
	}
	return row[ai]
}

// reset clears a tuple's state and records gen as the fixed-data generation
// its state now belongs to, invalidating in-flight enrichment computed from
// older tuple images: their generation-guarded writes no longer match.
func (st *StateTable) reset(tid int64, gen uint64) {
	st.mu.Lock()
	delete(st.rows, tid)
	if gen == 0 {
		delete(st.gens, tid)
	} else {
		st.gens[tid] = gen
	}
	st.mu.Unlock()
}

// Attrs returns the registered derived attributes.
func (st *StateTable) Attrs() []string {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]string, len(st.attrs))
	copy(out, st.attrs)
	return out
}

// SizeBytes estimates the storage footprint of the state table: bitmap and
// value per attribute state plus 8 bytes per retained probability. This is
// what Exp 5 reports.
func (st *StateTable) SizeBytes() int64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var size int64
	for _, row := range st.rows {
		for _, s := range row {
			if s == nil {
				continue
			}
			size += 16 // bitmap + determined value
			for _, o := range s.Outputs {
				if o == nil {
					continue
				}
				for _, p := range o.Probs {
					if p >= 0 {
						size += 8
					}
				}
				size++ // pruned flag
			}
		}
	}
	return size
}

// TupleCount returns how many tuples have any state.
func (st *StateTable) TupleCount() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.rows)
}

// StateRecord is the exported form of one (tuple, attribute) state, used by
// snapshot persistence.
type StateRecord struct {
	TID     int64
	Attr    string
	Bitmap  uint64
	Outputs []OutputRecord
	Value   types.Value
}

// OutputRecord is the exported form of one stored function output.
type OutputRecord struct {
	FnID   int
	Probs  []float64
	Pruned bool
}

// Export returns every stored state as records, in unspecified order.
func (st *StateTable) Export() []StateRecord {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var out []StateRecord
	for tid, row := range st.rows {
		for ai, s := range row {
			if s == nil {
				continue
			}
			rec := StateRecord{TID: tid, Attr: st.attrs[ai], Bitmap: s.Bitmap, Value: s.Value}
			for fnID, o := range s.Outputs {
				if o == nil {
					continue
				}
				probs := make([]float64, len(o.Probs))
				copy(probs, o.Probs)
				rec.Outputs = append(rec.Outputs, OutputRecord{FnID: fnID, Probs: probs, Pruned: o.Pruned})
			}
			out = append(out, rec)
		}
	}
	return out
}

// Import restores exported records. The table's families must already be
// registered and must cover every record's attribute and function ids.
func (st *StateTable) Import(records []StateRecord) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, rec := range records {
		ai, ok := st.attrIdx[rec.Attr]
		if !ok {
			return fmt.Errorf("enrich: import: %s has no derived attribute %s", st.Relation, rec.Attr)
		}
		nFns := len(st.families[ai].Functions)
		s := st.ensure(rec.TID, ai)
		s.Bitmap = rec.Bitmap
		s.Value = rec.Value
		for _, o := range rec.Outputs {
			if o.FnID < 0 || o.FnID >= nFns {
				return fmt.Errorf("enrich: import: %s.%s has no function %d", st.Relation, rec.Attr, o.FnID)
			}
			probs := make([]float64, len(o.Probs))
			copy(probs, o.Probs)
			s.Outputs[o.FnID] = &Output{Probs: probs, Pruned: o.Pruned}
		}
	}
	return nil
}
