// Package quality implements the quality measures of §5.2.2: set-based
// precision/recall/F1 of query answers against ground truth, per-group RMSE
// for aggregation queries, and the progressive score PS of Equation 1.
package quality

import (
	"math"
	"strconv"
	"strings"

	"enrichdb/internal/expr"
)

// rowKey identifies a result row: by the base-tuple ids it was derived from
// when available (enriched values may differ from ground truth, but the row
// still "is" the same answer tuple), else by its values.
func rowKey(r *expr.Row) string {
	if len(r.TIDs) > 0 {
		var sb strings.Builder
		for i, tid := range r.TIDs {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(strconv.FormatInt(tid, 10))
		}
		return sb.String()
	}
	var sb strings.Builder
	for _, v := range r.Vals {
		sb.WriteString(v.Key())
		sb.WriteByte('|')
	}
	return sb.String()
}

// SetF1 compares an answer set against the ground-truth answer set and
// returns precision, recall and F1. Duplicate rows are counted as a
// multiset. Empty sides follow the vacuous-truth convention: with both sets
// empty the match is perfect (1, 1, 1), not the former silent (0, 0, 0);
// an empty ground truth with a non-empty answer is pure false positives
// (precision 0, recall vacuously 1, F1 0).
func SetF1(got, want []*expr.Row) (precision, recall, f1 float64) {
	wantCounts := make(map[string]int, len(want))
	for _, r := range want {
		wantCounts[rowKey(r)]++
	}
	tp := 0
	for _, r := range got {
		k := rowKey(r)
		if wantCounts[k] > 0 {
			tp++
			wantCounts[k]--
		}
	}
	precision = 1 // vacuously: no answers, none wrong
	if len(got) > 0 {
		precision = float64(tp) / float64(len(got))
	}
	recall = 1 // vacuously: nothing to find, nothing missed
	if len(want) > 0 {
		recall = float64(tp) / float64(len(want))
	}
	if precision+recall > 0 {
		f1 = 2 * precision * recall / (precision + recall)
	}
	return precision, recall, f1
}

// GroupRMSE compares aggregation results group-wise: rows are keyed by all
// columns except the last (the aggregate value), and the RMSE of the value
// deviations over the union of groups is returned (§5.2.2's treatment of
// Q9). Groups missing on either side contribute their full value as
// deviation. ok is false when neither side has any groups — there the RMSE
// is undefined, and the former behaviour of returning 0 silently read as a
// perfect score against an empty ground truth.
func GroupRMSE(got, want []*expr.Row) (rmse float64, ok bool) {
	type gv struct {
		got, want  float64
		hasG, hasW bool
	}
	groups := make(map[string]*gv)
	key := func(r *expr.Row) string {
		var sb strings.Builder
		for _, v := range r.Vals[:len(r.Vals)-1] {
			sb.WriteString(v.Key())
			sb.WriteByte('|')
		}
		return sb.String()
	}
	val := func(r *expr.Row) float64 {
		v := r.Vals[len(r.Vals)-1]
		if v.IsNull() {
			return 0
		}
		return float64(v.Int())
	}
	for _, r := range got {
		k := key(r)
		g := groups[k]
		if g == nil {
			g = &gv{}
			groups[k] = g
		}
		g.got += val(r)
		g.hasG = true
	}
	for _, r := range want {
		k := key(r)
		g := groups[k]
		if g == nil {
			g = &gv{}
			groups[k] = g
		}
		g.want += val(r)
		g.hasW = true
	}
	if len(groups) == 0 {
		return 0, false
	}
	sum := 0.0
	for _, g := range groups {
		d := g.got - g.want
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(groups))), true
}

// ProgressiveScore computes PS (Equation 1): the weighted sum of per-epoch
// quality improvements, with linearly decreasing weights W(eᵢ) = max(0,
// 1 − slope·(i−1)) so early improvements count more. quality[0] is the
// quality after epoch e₀ (query setup); the paper uses slope 0.05.
func ProgressiveScore(quality []float64, slope float64) float64 {
	ps := 0.0
	for i := 1; i < len(quality); i++ {
		w := 1 - slope*float64(i-1)
		if w < 0 {
			w = 0
		}
		ps += w * math.Abs(quality[i]-quality[i-1])
	}
	return ps
}

// Normalize scales a quality series by its maximum (the paper plots
// F1/F1_max). A flat-zero series is returned unchanged.
func Normalize(quality []float64) []float64 {
	maxQ := 0.0
	for _, q := range quality {
		if q > maxQ {
			maxQ = q
		}
	}
	out := make([]float64, len(quality))
	if maxQ == 0 {
		copy(out, quality)
		return out
	}
	for i, q := range quality {
		out[i] = q / maxQ
	}
	return out
}
