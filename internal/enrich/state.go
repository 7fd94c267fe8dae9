package enrich

import (
	"fmt"
	"math/bits"
	"sync"

	"enrichdb/internal/types"
)

// prunedMark stands in a stored probability the state cutoff (§3.2) pruned.
const prunedMark = -1

// pageSlots is how many state slots one column page holds. Columns grow a
// page at a time, so a new slot never copies the table.
const pageSlots = 256

// noSlot is a slotRef's slot when the tuple holds no state.
const noSlot = -1

// slotRef is a tuple's entry in the slot lookup: the slot its state lives in
// (noSlot when it has none) and the fixed-data generation that state belongs
// to. A tuple absent from the lookup has no state at generation 0, matching
// freshly inserted tuples. Generation-guarded writes compare against gen, so
// a session that computed enrichment from a superseded tuple image cannot
// clobber state a newer committed write reset (§3.3.5 under concurrency).
type slotRef struct {
	slot int32
	gen  uint64
}

// colPage holds one attribute's state for pageSlots slots: whether the
// (tuple, attribute) has state, the bitmap of executed functions, the
// bitmap of those whose stored output the cutoff pruned, the determined
// value (the paper's AValue), and the stored outputs, stride float64s per
// slot and domain per function, pruned entries holding prunedMark.
type colPage struct {
	present [pageSlots]bool
	bitmap  [pageSlots]uint64
	pruned  [pageSlots]uint64
	value   [pageSlots]types.Value
	probs   []float64
}

// attrCol is one derived attribute's column of state pages.
type attrCol struct {
	fam    *Family
	domain int
	stride int // len(fam.Functions) * domain
	pages  []*colPage
}

// cell returns the page and offset of slot.
func (c *attrCol) cell(slot int32) (*colPage, int) {
	return c.pages[slot/pageSlots], int(slot % pageSlots)
}

// output returns function fnID's stored output in p at off.
func (c *attrCol) output(p *colPage, off, fnID int) []float64 {
	lo := off*c.stride + fnID*c.domain
	return p.probs[lo : lo+c.domain : lo+c.domain]
}

// effective copies function fnID's stored output at (p, off) into dst and
// returns dst, pruned entries as zero.
func (c *attrCol) effective(dst []float64, p *colPage, off, fnID int) []float64 {
	copy(dst, c.output(p, off, fnID))
	if p.pruned[off]&(1<<uint(fnID)) != 0 {
		for i, v := range dst {
			dst[i] = max(v, 0)
		}
	}
	return dst
}

// sizeAt is what (p, off) adds to SizeBytes: bitmap and value when present,
// plus per stored output a pruned flag and 8 bytes per retained probability.
func (c *attrCol) sizeAt(p *colPage, off int) int64 {
	if !p.present[off] {
		return 0
	}
	size := int64(16)
	for b := p.bitmap[off]; b != 0; b &= b - 1 {
		size += outputSize(c.output(p, off, bits.TrailingZeros64(b)))
	}
	return size
}

// outputSize is one stored output's share of SizeBytes.
func outputSize(probs []float64) int64 {
	size := int64(1)
	for _, v := range probs {
		if v >= 0 {
			size += 8
		}
	}
	return size
}

// StateTable holds the enrichment state of every tuple of one relation
// (the paper's R_State table) as per-attribute columns indexed by a dense
// state slot, so its size adds no heap objects per tuple. Readers copy what
// they read under the read lock into memory they own. It is safe for
// concurrent use.
type StateTable struct {
	Relation string

	mu      sync.RWMutex
	attrs   []string
	attrIdx map[string]int
	cols    []attrCol
	cutoff  float64
	slots   map[int64]slotRef
	free    []int32 // reset slots, zeroed
	next    int32   // slots ever allocated
	live    int     // tuples holding a slot
	bytes   int64   // SizeBytes
}

// newStateTable creates an empty state table.
func newStateTable(relation string) *StateTable {
	return &StateTable{Relation: relation, attrIdx: make(map[string]int), slots: make(map[int64]slotRef)}
}

// addFamily registers a derived attribute's family with the table.
func (st *StateTable) addFamily(fam *Family) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, dup := st.attrIdx[fam.Attr]; dup {
		return fmt.Errorf("enrich: family for %s.%s already registered", fam.Relation, fam.Attr)
	}
	if st.live > 0 {
		return fmt.Errorf("enrich: cannot add family %s.%s after state exists", fam.Relation, fam.Attr)
	}
	st.attrIdx[fam.Attr] = len(st.attrs)
	st.attrs = append(st.attrs, fam.Attr)
	c := attrCol{fam: fam, domain: fam.Domain, stride: len(fam.Functions) * fam.Domain}
	for len(c.pages)*pageSlots < int(st.next) {
		c.pages = append(c.pages, &colPage{probs: make([]float64, pageSlots*c.stride)})
	}
	st.cols = append(st.cols, c)
	return nil
}

// SetCutoff sets the state-cutoff threshold (0 disables pruning). It only
// affects outputs stored afterwards.
func (st *StateTable) SetCutoff(c float64) {
	st.mu.Lock()
	st.cutoff = c
	st.mu.Unlock()
}

// lookup returns tid's entry. Caller must hold st.mu.
func (st *StateTable) lookup(tid int64) slotRef {
	if ref, ok := st.slots[tid]; ok {
		return ref
	}
	return slotRef{slot: noSlot}
}

// at returns the page and offset of (tid, attr)'s state for the tuple image
// at gen; ok is false when the image holds none. Caller must hold st.mu.
func (st *StateTable) at(tid int64, attr string, gen uint64) (c *attrCol, p *colPage, off int, ok bool) {
	ai, known := st.attrIdx[attr]
	ref := st.lookup(tid)
	if !known || ref.slot == noSlot || ref.gen != gen {
		return nil, nil, 0, false
	}
	c = &st.cols[ai]
	p, off = c.cell(ref.slot)
	return c, p, off, p.present[off]
}

// ensure returns the cell of (tid, attr), giving the tuple a slot and the
// attribute a present state as needed. Caller must hold st.mu.
func (st *StateTable) ensure(tid int64, ai int) (*attrCol, *colPage, int) {
	ref := st.lookup(tid)
	if ref.slot == noSlot {
		if n := len(st.free); n > 0 {
			ref.slot, st.free = st.free[n-1], st.free[:n-1]
		} else {
			if st.next%pageSlots == 0 {
				for i := range st.cols {
					c := &st.cols[i]
					c.pages = append(c.pages, &colPage{probs: make([]float64, pageSlots*c.stride)})
				}
			}
			ref.slot = st.next
			st.next++
		}
		st.slots[tid] = ref
		st.live++
	}
	c := &st.cols[ai]
	p, off := c.cell(ref.slot)
	if !p.present[off] {
		p.present[off] = true
		st.bytes += 16
	}
	return c, p, off
}

// setOutputs records function outputs, each computed from the tuple image
// at its Gen, under one lock: applying the cutoff, it marks each function
// executed and counts the outputs stored and those dropped as stale (a newer
// committed write superseded their generation). Within one generation the
// first write per (tid, attr, fnID) wins: a second write finds the bitmap
// bit set and counts as neither, without touching the state, which makes
// concurrent duplicate enrichments (two epoch workers racing on a
// self-join's shared tuple) collapse to one deterministic write. The first
// invalid output stops the batch; an output is invalid when its attribute
// or function is not the table's or its length is not the family's domain.
func (st *StateTable) setOutputs(outs []FnOutput) (stored, stale int64, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, o := range outs {
		ai, ok := st.attrIdx[o.Attr]
		if !ok {
			return stored, stale, fmt.Errorf("enrich: %s has no derived attribute %s", st.Relation, o.Attr)
		}
		if o.FnID < 0 || o.FnID >= len(st.cols[ai].fam.Functions) {
			return stored, stale, fmt.Errorf("enrich: %s.%s has no function %d", st.Relation, o.Attr, o.FnID)
		}
		if d := st.cols[ai].domain; len(o.Probs) != d {
			return stored, stale, fmt.Errorf("enrich: %s.%s function %d returned %d probabilities for a domain of %d",
				st.Relation, o.Attr, o.FnID, len(o.Probs), d)
		}
		if st.lookup(o.TID).gen != o.Gen {
			stale++
			continue
		}
		c, p, off := st.ensure(o.TID, ai)
		bit := uint64(1) << uint(o.FnID)
		if p.bitmap[off]&bit != 0 {
			continue
		}
		dst := c.output(p, off, o.FnID)
		for i, v := range o.Probs {
			if st.cutoff > 0 && v < st.cutoff {
				dst[i] = prunedMark
				p.pruned[off] |= bit
			} else {
				dst[i] = v
			}
		}
		p.bitmap[off] |= bit
		st.bytes += outputSize(dst)
		stored++
	}
	return stored, stale, nil
}

// slotState is one write-back slot's state as the batch sees it: current is
// whether the state belongs to the slot's image, and when that image holds
// any state, present is set, bitmap and pruned are its bitmaps, and probs
// its effective outputs (stride long, function id major). write, complete
// and stale are the batch's decisions for the slot.
type slotState struct {
	probs                  []float64
	bitmap, pruned         uint64
	current, present       bool
	write, complete, stale bool
}

// snapshotSlots reads every slot's state under one read lock, copying the
// outputs into one buffer for the batch. Generation and outputs are read
// together, so a commit resetting a tuple cannot slip between the check and
// the copy and make an emptied state look like "nothing executed yet" for
// the slot's image. Every slot's attribute must be the table's.
func (st *StateTable) snapshotSlots(slots []WriteBackSlot) []slotState {
	states := make([]slotState, len(slots))
	st.mu.RLock()
	defer st.mu.RUnlock()
	n := 0
	for i := range slots {
		n += st.cols[st.attrIdx[slots[i].Attr]].stride
	}
	buf := make([]float64, n)
	for i := range slots {
		ss, sl := &states[i], &slots[i]
		ref := st.lookup(sl.Tuple.ID)
		if ss.current = ref.gen == sl.Tuple.Gen; !ss.current || ref.slot == noSlot {
			continue
		}
		c := &st.cols[st.attrIdx[sl.Attr]]
		p, off := c.cell(ref.slot)
		if !p.present[off] {
			continue
		}
		ss.present, ss.bitmap, ss.pruned = true, p.bitmap[off], p.pruned[off]
		ss.probs, buf = buf[:c.stride:c.stride], buf[c.stride:]
		for b := ss.bitmap; b != 0; b &= b - 1 {
			id := bits.TrailingZeros64(b)
			c.effective(ss.probs[id*c.domain:(id+1)*c.domain], p, off, id)
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
		if st.lookup(sl.Tuple.ID).gen != sl.Tuple.Gen {
			ss.stale = true
			continue
		}
		_, p, off := st.ensure(sl.Tuple.ID, ai)
		p.value[off] = sl.Value
	}
	return nil
}

// GenOf returns the fixed-data generation the tuple's state belongs to.
func (st *StateTable) GenOf(tid int64) uint64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.lookup(tid).gen
}

// BitmapAt returns the executed-function bitmap of (tid, attr) for the
// tuple image at gen: zero when nothing ran or the state belongs to another
// image. The generation and the bitmap are read under one lock.
func (st *StateTable) BitmapAt(tid int64, attr string, gen uint64) uint64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if _, p, off, ok := st.at(tid, attr, gen); ok {
		return p.bitmap[off]
	}
	return 0
}

// outputAt returns a copy of the effective stored output of function fnID
// for (tid, attr) at the tuple image at gen, or nil when it did not run for
// that image.
func (st *StateTable) outputAt(tid int64, attr string, fnID int, gen uint64) []float64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	// A function id outside the family has no bit: its shift yields zero.
	c, p, off, ok := st.at(tid, attr, gen)
	if !ok || p.bitmap[off]&(1<<uint(fnID)) == 0 {
		return nil
	}
	return c.effective(make([]float64, c.domain), p, off, fnID)
}

// valueAt returns the determined value of (tid, attr) for the tuple image at
// gen: NULL when none was stored or the state belongs to another image.
func (st *StateTable) valueAt(tid int64, attr string, gen uint64) types.Value {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if _, p, off, ok := st.at(tid, attr, gen); ok {
		return p.value[off]
	}
	return types.Null
}

// OutputBuf is caller-owned memory OutputsAt copies outputs into; one
// buffer serves any number of calls, each overwriting the last.
type OutputBuf struct {
	probs []float64
	outs  [][]float64
}

// OutputsAt copies the effective outputs of (tid, attr) for the tuple image
// at gen into buf and returns them by function id, nil where the function
// did not run. It returns nil when the image holds no state, including when
// the state belongs to another generation: generation and outputs are read
// under one lock, so a commit resetting the tuple cannot make an emptied
// state look like "nothing executed yet" for the caller's image. The views
// stay valid until buf's next use.
func (st *StateTable) OutputsAt(tid int64, attr string, gen uint64, buf *OutputBuf) [][]float64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	c, p, off, ok := st.at(tid, attr, gen)
	if !ok {
		return nil
	}
	if len(buf.probs) < c.stride {
		buf.probs = make([]float64, c.stride)
	}
	nFns := len(c.fam.Functions)
	if cap(buf.outs) < nFns {
		buf.outs = make([][]float64, nFns)
	}
	outs := buf.outs[:nFns]
	for id := range outs {
		outs[id] = nil
		if p.bitmap[off]&(1<<uint(id)) != 0 {
			outs[id] = c.effective(buf.probs[id*c.domain:(id+1)*c.domain], p, off, id)
		}
	}
	return outs
}

// reset clears a tuple's state, returning its slot zeroed to the free list,
// and records gen as the fixed-data generation its state now belongs to,
// invalidating in-flight enrichment computed from older tuple images: their
// generation-guarded writes no longer match.
func (st *StateTable) reset(tid int64, gen uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if ref := st.lookup(tid); ref.slot != noSlot {
		for i := range st.cols {
			c := &st.cols[i]
			p, off := c.cell(ref.slot)
			st.bytes -= c.sizeAt(p, off)
			p.present[off], p.bitmap[off], p.pruned[off], p.value[off] = false, 0, 0, types.Null
			clear(p.probs[off*c.stride : (off+1)*c.stride])
		}
		st.free = append(st.free, ref.slot)
		st.live--
	}
	if gen == 0 {
		delete(st.slots, tid)
	} else {
		st.slots[tid] = slotRef{slot: noSlot, gen: gen}
	}
}

// SizeBytes estimates the storage footprint of the state table: bitmap and
// value per attribute state plus, per stored output, a pruned flag and 8
// bytes per retained probability. This is what Exp 5 reports. It is a
// counter the writes keep, not a walk of the table.
func (st *StateTable) SizeBytes() int64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.bytes
}

// TupleCount returns how many tuples have any state.
func (st *StateTable) TupleCount() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.live
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
	for tid, ref := range st.slots {
		if ref.slot == noSlot {
			continue
		}
		for ai := range st.cols {
			c := &st.cols[ai]
			p, off := c.cell(ref.slot)
			if !p.present[off] {
				continue
			}
			rec := StateRecord{TID: tid, Attr: st.attrs[ai], Bitmap: p.bitmap[off], Value: p.value[off]}
			for b := p.bitmap[off]; b != 0; b &= b - 1 {
				id := bits.TrailingZeros64(b)
				probs := append([]float64(nil), c.output(p, off, id)...)
				rec.Outputs = append(rec.Outputs, OutputRecord{FnID: id, Probs: probs, Pruned: p.pruned[off]&(1<<uint(id)) != 0})
			}
			out = append(out, rec)
		}
	}
	return out
}

// Import restores exported records, each replacing the state of its
// (tuple, attribute). The table's families must already be registered and
// must cover every record's attribute and function ids; a record's outputs
// must match its bitmap one to one and each hold the family's domain.
func (st *StateTable) Import(records []StateRecord) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, rec := range records {
		ai, ok := st.attrIdx[rec.Attr]
		if !ok {
			return fmt.Errorf("enrich: import: %s has no derived attribute %s", st.Relation, rec.Attr)
		}
		c := &st.cols[ai]
		var seen uint64
		for _, o := range rec.Outputs {
			if o.FnID < 0 || o.FnID >= len(c.fam.Functions) {
				return fmt.Errorf("enrich: import: %s.%s has no function %d", st.Relation, rec.Attr, o.FnID)
			}
			if bit := uint64(1) << uint(o.FnID); seen&bit != 0 || len(o.Probs) != c.domain {
				return fmt.Errorf("enrich: import: %s.%s tuple %d: output %d is repeated or not %d long", st.Relation, rec.Attr, rec.TID, o.FnID, c.domain)
			}
			seen |= 1 << uint(o.FnID)
		}
		if seen != rec.Bitmap {
			return fmt.Errorf("enrich: import: %s.%s tuple %d: bitmap %b does not match its outputs %b", st.Relation, rec.Attr, rec.TID, rec.Bitmap, seen)
		}
		_, p, off := st.ensure(rec.TID, ai)
		st.bytes -= c.sizeAt(p, off) - 16
		p.bitmap[off], p.pruned[off], p.value[off] = rec.Bitmap, 0, rec.Value
		clear(p.probs[off*c.stride : (off+1)*c.stride])
		for _, o := range rec.Outputs {
			copy(c.output(p, off, o.FnID), o.Probs)
			if o.Pruned {
				p.pruned[off] |= 1 << uint(o.FnID)
			}
			st.bytes += outputSize(o.Probs)
		}
	}
	return nil
}
