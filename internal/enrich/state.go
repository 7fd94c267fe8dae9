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

// Executed reports whether function fnID has run.
func (s *AttrState) Executed(fnID int) bool {
	return s != nil && s.Bitmap&(1<<uint(fnID)) != 0
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

// Get returns the state of (tid, attr), or nil when nothing was stored. The
// returned pointer shares the table's storage; callers must treat it as
// read-only, and concurrent writers make even reads racy — concurrent code
// must use Executed, BitmapOf, ValueOf or OutputSnapshot instead, which read
// under the table lock.
func (st *StateTable) Get(tid int64, attr string) *AttrState {
	st.mu.RLock()
	defer st.mu.RUnlock()
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

// SetOutput records a function's output, applying the cutoff, and marks the
// function executed. The first write per (tid, attr, fnID) wins: a second
// write finds the bitmap bit set and returns stored=false without touching
// the state, which makes concurrent duplicate enrichments (two epoch workers
// racing on a self-join's shared tuple) collapse to one deterministic write.
func (st *StateTable) SetOutput(tid int64, attr string, fnID int, probs []float64) (stored bool, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.setOutputLocked(tid, attr, fnID, probs)
}

// setOutputLocked is SetOutput's body; caller must hold st.mu.
func (st *StateTable) setOutputLocked(tid int64, attr string, fnID int, probs []float64) (stored bool, err error) {
	ai, ok := st.attrIdx[attr]
	if !ok {
		return false, fmt.Errorf("enrich: %s has no derived attribute %s", st.Relation, attr)
	}
	if fnID < 0 || fnID >= len(st.families[ai].Functions) {
		return false, fmt.Errorf("enrich: %s.%s has no function %d", st.Relation, attr, fnID)
	}
	s := st.ensure(tid, ai)
	if s.Bitmap&(1<<uint(fnID)) != 0 {
		return false, nil
	}
	out := &Output{Probs: make([]float64, len(probs))}
	for i, p := range probs {
		if st.cutoff > 0 && p < st.cutoff {
			out.Probs[i] = prunedMark
			out.Pruned = true
		} else {
			out.Probs[i] = p
		}
	}
	s.Outputs[fnID] = out
	s.Bitmap |= 1 << uint(fnID)
	return true, nil
}

// SetOutputAt is SetOutput guarded by the tuple's fixed-data generation:
// when gen differs from the table's recorded generation for the tuple, the
// write is dropped (stale=true) — the output was computed from a tuple image
// a newer committed write has since superseded.
func (st *StateTable) SetOutputAt(tid int64, attr string, fnID int, probs []float64, gen uint64) (stored, stale bool, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.gens[tid] != gen {
		return false, true, nil
	}
	stored, err = st.setOutputLocked(tid, attr, fnID, probs)
	return stored, false, err
}

// GenOf returns the fixed-data generation the tuple's state belongs to.
func (st *StateTable) GenOf(tid int64) uint64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.gens[tid]
}

// Executed reports whether function fnID of (tid, attr) has run, reading
// under the table lock (safe against concurrent writers, unlike Get).
func (st *StateTable) Executed(tid int64, attr string, fnID int) bool {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.locked(tid, attr).Executed(fnID)
}

// BitmapOf returns the executed-function bitmap of (tid, attr) under the
// table lock; zero when no state exists.
func (st *StateTable) BitmapOf(tid int64, attr string) uint64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if s := st.locked(tid, attr); s != nil {
		return s.Bitmap
	}
	return 0
}

// ValueOf returns the determined value of (tid, attr) under the table lock;
// Null when no state exists.
func (st *StateTable) ValueOf(tid int64, attr string) types.Value {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if s := st.locked(tid, attr); s != nil {
		return s.Value
	}
	return types.Null
}

// OutputSnapshot returns a copy of the per-function output slice of
// (tid, attr), or nil when no state exists. Output structs are immutable
// once published, so copying the pointer slice under the lock yields a
// consistent snapshot concurrent determinization can read freely.
func (st *StateTable) OutputSnapshot(tid int64, attr string) []*Output {
	st.mu.RLock()
	defer st.mu.RUnlock()
	s := st.locked(tid, attr)
	if s == nil {
		return nil
	}
	out := make([]*Output, len(s.Outputs))
	copy(out, s.Outputs)
	return out
}

// OutputSnapshotAt is OutputSnapshot for the tuple image at gen: current is
// false, and nothing is returned, when the state belongs to another
// generation. Generation and outputs are read under one lock, so a commit
// resetting the tuple cannot slip between the check and the copy and make an
// emptied state look like "nothing executed yet" for the caller's image.
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

// SetValue stores the determined value for (tid, attr).
func (st *StateTable) SetValue(tid int64, attr string, v types.Value) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	ai, ok := st.attrIdx[attr]
	if !ok {
		return fmt.Errorf("enrich: %s has no derived attribute %s", st.Relation, attr)
	}
	st.ensure(tid, ai).Value = v
	return nil
}

// SetValueAt is SetValue guarded by the tuple's fixed-data generation; a
// stale determinization (computed against a superseded tuple image) is
// silently dropped.
func (st *StateTable) SetValueAt(tid int64, attr string, v types.Value, gen uint64) (stale bool, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.gens[tid] != gen {
		return true, nil
	}
	ai, ok := st.attrIdx[attr]
	if !ok {
		return false, fmt.Errorf("enrich: %s has no derived attribute %s", st.Relation, attr)
	}
	st.ensure(tid, ai).Value = v
	return false, nil
}

// ResetTuple clears all enrichment state of a tuple — the paper's handling
// of non-conflicting base-table updates (§3.3.5).
func (st *StateTable) ResetTuple(tid int64) {
	st.mu.Lock()
	delete(st.rows, tid)
	st.mu.Unlock()
}

// ResetTupleGen clears a tuple's state and advances its recorded fixed-data
// generation, invalidating in-flight enrichment computed from older tuple
// images: their generation-guarded writes will no longer match.
func (st *StateTable) ResetTupleGen(tid int64, gen uint64) {
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
