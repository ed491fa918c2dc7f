// Package assoc generates association rules from mined frequent
// itemsets — the application layer of §II's motivating examples (market
// basket analysis, product recommendation). A rule X ⇒ Y holds when the
// itemset X∪Y is frequent and the confidence support(X∪Y)/support(X)
// clears a threshold.
//
// Rule generation uses the standard Agrawal–Srikant antecedent-shrinking
// search: for each frequent itemset, consequents grow from single items,
// pruned by the anti-monotonicity of confidence in the consequent.
package assoc

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/itemset"
)

// Rule is one association rule over dense item codes.
type Rule struct {
	Antecedent itemset.Itemset // X
	Consequent itemset.Itemset // Y (disjoint from X)
	// Support is the absolute support of X ∪ Y.
	Support int
	// Confidence is support(X∪Y) / support(X).
	Confidence float64
	// Lift is confidence / P(Y); above 1 means positive correlation.
	Lift float64
}

// String renders the rule in the conventional X => Y form.
func (r Rule) String() string {
	return fmt.Sprintf("%v => %v (sup=%d conf=%.3f lift=%.2f)",
		r.Antecedent, r.Consequent, r.Support, r.Confidence, r.Lift)
}

// Generate derives every rule with confidence >= minConf from the
// frequent itemsets of res. Rules are returned in a deterministic order
// (by antecedent, then consequent).
func Generate(res *core.Result, minConf float64) []Rule {
	support := res.ByKey()
	total := res.Rec.DB.NumTransactions()
	var rules []Rule
	for _, c := range res.Counts {
		rules = appendRules(rules, c, support, total, minConf)
	}
	slices.SortFunc(rules, func(a, b Rule) int {
		if c := a.Antecedent.Compare(b.Antecedent); c != 0 {
			return c
		}
		return a.Consequent.Compare(b.Consequent)
	})
	return rules
}

// appendRules derives every rule of one frequent itemset.
func appendRules(rules []Rule, c core.ItemsetCount, support map[string]int, total int, minConf float64) []Rule {
	if len(c.Items) < 2 {
		return rules
	}
	full := c.Items
	fullSup := c.Support
	// Candidate consequents, grown from single items (Apriori-style
	// over the consequent lattice).
	var level []itemset.Itemset
	for _, it := range full {
		level = append(level, itemset.New(it))
	}
	for len(level) > 0 {
		var kept []itemset.Itemset
		for _, y := range level {
			if len(y) == len(full) {
				continue // antecedent would be empty
			}
			x := full.Minus(y)
			xSup, ok := support[x.Key()]
			if !ok {
				continue // cannot happen for frequent full, defensive
			}
			conf := float64(fullSup) / float64(xSup)
			if conf < minConf {
				continue // no superset consequent can recover confidence
			}
			lift := 0.0
			if ySup, ok := support[y.Key()]; ok && ySup > 0 && total > 0 {
				lift = conf / (float64(ySup) / float64(total))
			}
			rules = append(rules, Rule{
				Antecedent: x,
				Consequent: y,
				Support:    fullSup,
				Confidence: conf,
				Lift:       lift,
			})
			kept = append(kept, y)
		}
		level = joinConsequents(kept)
	}
	return rules
}

// joinConsequents grows the consequent candidates one item, joining
// same-length sets sharing all but the last item.
func joinConsequents(level []itemset.Itemset) []itemset.Itemset {
	var next []itemset.Itemset
	for i := 0; i < len(level); i++ {
		for j := i + 1; j < len(level); j++ {
			if c, ok := level[i].Join(level[j]); ok {
				next = append(next, c)
			}
		}
	}
	return next
}

// Decode maps a rule's item codes back through the result's recoding.
func Decode(res *core.Result, r Rule) Rule {
	r.Antecedent = res.Rec.Decode(r.Antecedent)
	r.Consequent = res.Rec.Decode(r.Consequent)
	return r
}

// TopByLift returns the n rules with the highest lift (ties broken by
// confidence, then deterministic order), a convenience for the examples.
func TopByLift(rules []Rule, n int) []Rule {
	out := make([]Rule, len(rules))
	copy(out, rules)
	slices.SortStableFunc(out, func(a, b Rule) int {
		if a.Lift != b.Lift {
			return cmp.Compare(b.Lift, a.Lift)
		}
		return cmp.Compare(b.Confidence, a.Confidence)
	})
	if n > len(out) {
		n = len(out)
	}
	return out[:n]
}
