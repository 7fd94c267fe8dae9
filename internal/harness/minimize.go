package harness

// minimizeOps shrinks a failing op trace with ddmin-style delta debugging:
// it repeatedly tries dropping chunks of the op history and keeps any subset
// for which the serial replay of the query still disagrees with the recorded
// concurrent result. Replay is deterministic, so the check is repeatable; a
// subset that breaks replayability (an update or delete of a never-inserted
// tuple fails to apply) simply doesn't reproduce and is rejected like any
// other non-failing candidate.
func minimizeOps(cfg Config, ops []committed, q recordedQuery) []committed {
	fails := func(subset []committed) bool {
		got, err := replaySingle(cfg, subset, q)
		if err != nil {
			return false // invalid or erroring subset: not a reproduction
		}
		return !compare(q.Design, q.Result, got)
	}
	if !fails(ops) {
		// The full prefix must fail (the caller just saw it fail); if the
		// probe disagrees something is nondeterministic, so don't minimize.
		return ops
	}

	cur := append([]committed(nil), ops...)
	n := 2
	const maxProbes = 400 // bound replay work on huge histories
	probes := 0
	for len(cur) >= 2 && probes < maxProbes {
		chunk := (len(cur) + n - 1) / n
		reduced := false
		for start := 0; start < len(cur); start += chunk {
			end := start + chunk
			if end > len(cur) {
				end = len(cur)
			}
			// Complement: everything except cur[start:end].
			cand := make([]committed, 0, len(cur)-(end-start))
			cand = append(cand, cur[:start]...)
			cand = append(cand, cur[end:]...)
			probes++
			if fails(cand) {
				cur = cand
				n = max(n-1, 2)
				reduced = true
				break
			}
			if probes >= maxProbes {
				break
			}
		}
		if !reduced {
			if n >= len(cur) {
				break
			}
			n = min(n*2, len(cur))
		}
	}
	return cur
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
