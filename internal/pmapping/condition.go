package pmapping

import (
	"fmt"

	"udi/internal/maxent"
)

// Condition incorporates user feedback about one correspondence into the
// p-mapping, the pay-as-you-go improvement loop the paper defers to future
// work (§9, citing Jeffery et al.): confirming a correspondence pins its
// probability to 1, rejecting pins it to 0, and the distribution over
// mappings is recomputed as the maximum-entropy distribution consistent
// with the updated constraints.
//
// Confirming (srcAttr → medIdx) removes every correspondence that
// conflicts with it under the one-to-one requirement (same source
// attribute or same mediated attribute); if the correspondence was not
// present (e.g. it fell below the similarity threshold at setup time) it
// is injected. Rejecting simply removes the correspondence. Groups
// touching the affected attributes are merged and re-solved; the rest of
// the p-mapping is untouched.
func (pm *PMapping) Condition(srcAttr string, medIdx int, confirmed bool, cfg Config) error {
	cfg = cfg.withDefaults()

	// Collect the groups touching srcAttr or medIdx; they merge because
	// the feedback correlates them.
	var merged []Corr
	var kept []Group
	touched := false
	for _, g := range pm.Groups {
		touches := false
		for _, c := range g.Corrs {
			if c.SrcAttr == srcAttr || c.MedIdx == medIdx {
				touches = true
				break
			}
		}
		if touches {
			merged = append(merged, g.Corrs...)
			touched = true
		} else {
			kept = append(kept, g)
		}
	}
	if !touched && !confirmed {
		return nil // rejecting something the system never believed
	}

	// Apply the feedback to the merged correspondence list.
	var updated []Corr
	found := false
	for _, c := range merged {
		isTarget := c.SrcAttr == srcAttr && c.MedIdx == medIdx
		if isTarget {
			found = true
			if confirmed {
				c.Weight = 1
				updated = append(updated, c)
			}
			continue // rejected: drop
		}
		if confirmed && (c.SrcAttr == srcAttr || c.MedIdx == medIdx) {
			continue // conflicts with the confirmed correspondence
		}
		updated = append(updated, c)
	}
	if confirmed && !found {
		updated = append(updated, Corr{SrcAttr: srcAttr, MedIdx: medIdx, Weight: 1})
	}

	if len(updated) == 0 {
		pm.Groups = kept
		return nil
	}
	// Re-split (removals may have disconnected the merged set) and
	// re-solve each component.
	m := maxent.NewMetrics(cfg.Maxent.Obs)
	for _, groupCorrs := range splitGroups(updated) {
		g, dropped, err := solveGroup(groupCorrs, cfg, m)
		if err != nil {
			return fmt.Errorf("pmapping: conditioning failed: %w", err)
		}
		pm.DroppedCorrs += dropped
		kept = append(kept, g)
	}
	pm.Groups = kept
	return nil
}

// MarginalProb returns the probability that srcAttr maps to medIdx under
// the p-mapping: the total probability of mappings containing the
// correspondence. It is 0 if the correspondence is not represented.
func (pm *PMapping) MarginalProb(srcAttr string, medIdx int) float64 {
	for _, g := range pm.Groups {
		ci := -1
		for i, c := range g.Corrs {
			if c.SrcAttr == srcAttr && c.MedIdx == medIdx {
				ci = i
				break
			}
		}
		if ci < 0 {
			continue
		}
		total := 0.0
		for k, mapping := range g.Mappings {
			for _, idx := range mapping {
				if idx == ci {
					total += g.Probs[k]
					break
				}
			}
		}
		return total
	}
	return 0
}

// Entropy returns the total entropy of the p-mapping (the sum of group
// entropies; groups are independent). Feedback monotonically reduces it.
func (pm *PMapping) Entropy() float64 {
	h := 0.0
	for _, g := range pm.Groups {
		h += maxent.Entropy(g.Probs)
	}
	return h
}
