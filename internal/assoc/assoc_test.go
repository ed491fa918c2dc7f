package assoc

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eclat"
	"repro/internal/itemset"
	"repro/internal/vertical"
)

// The diapers-and-beer toy: items 1=diapers 2=beer 3=milk.
const basket = `1 2
1 2
1 2 3
1 2
3
1 3
2
`

func mined(t *testing.T, text string, minSup int) *core.Result {
	t.Helper()
	db, err := dataset.ReadFIMI("basket", strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	rec := db.Recode(minSup)
	return must(eclat.Mine(rec, minSup, core.DefaultOptions(vertical.Tidset, 1)))
}

func findRule(rules []Rule, x, y itemset.Itemset) (Rule, bool) {
	for _, r := range rules {
		if r.Antecedent.Equal(x) && r.Consequent.Equal(y) {
			return r, true
		}
	}
	return Rule{}, false
}

func TestGenerateDiapersBeer(t *testing.T) {
	res := mined(t, basket, 2)
	rules := Generate(res, 0.7)
	// Dense codes: 1->0, 2->1, 3->2.
	// support(1)=5, support(2)=5, support(12)=4:
	// {1}=>{2} has confidence 4/5 = 0.8.
	r, ok := findRule(rules, itemset.New(0), itemset.New(1))
	if !ok {
		t.Fatalf("missing rule {diapers}=>{beer}; have %v", rules)
	}
	if math.Abs(r.Confidence-0.8) > 1e-9 || r.Support != 4 {
		t.Errorf("rule = %+v, want conf 0.8 sup 4", r)
	}
	// lift = conf / P(beer) = 0.8 / (5/7) = 1.12
	if math.Abs(r.Lift-0.8/(5.0/7.0)) > 1e-9 {
		t.Errorf("lift = %v", r.Lift)
	}
	// No rule below the confidence threshold.
	for _, r := range rules {
		if r.Confidence < 0.7 {
			t.Errorf("rule %v below threshold", r)
		}
	}
}

func TestGenerateConfidenceOne(t *testing.T) {
	// Items always together: both directions with confidence 1.
	res := mined(t, "1 2\n1 2\n1 2\n", 2)
	rules := Generate(res, 1.0)
	if len(rules) != 2 {
		t.Fatalf("rules = %v", rules)
	}
	for _, r := range rules {
		if r.Confidence != 1.0 {
			t.Errorf("confidence = %v", r.Confidence)
		}
	}
}

func TestGenerateMultiItemConsequents(t *testing.T) {
	// 4 identical transactions over 3 items: every partition of every
	// subset is a rule with confidence 1. For {0,1,2}: consequents of
	// size 1 (3) and size 2 (3) => 6 rules, plus 2 from each 2-itemset
	// (3 of them) => 12 total.
	res := mined(t, "1 2 3\n1 2 3\n1 2 3\n1 2 3\n", 2)
	rules := Generate(res, 0.9)
	if len(rules) != 12 {
		t.Fatalf("got %d rules, want 12: %v", len(rules), rules)
	}
	if _, ok := findRule(rules, itemset.New(0), itemset.New(1, 2)); !ok {
		t.Error("missing multi-item consequent rule {0}=>{1,2}")
	}
}

func TestDecode(t *testing.T) {
	res := mined(t, basket, 2)
	rules := Generate(res, 0.7)
	r, ok := findRule(rules, itemset.New(0), itemset.New(1))
	if !ok {
		t.Fatal("rule not found")
	}
	d := Decode(res, r)
	if !d.Antecedent.Equal(itemset.New(1)) || !d.Consequent.Equal(itemset.New(2)) {
		t.Errorf("decoded rule = %v => %v", d.Antecedent, d.Consequent)
	}
}

func TestTopByLift(t *testing.T) {
	res := mined(t, basket, 2)
	rules := Generate(res, 0.1)
	top := TopByLift(rules, 3)
	if len(top) != 3 {
		t.Fatalf("top = %d rules", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Lift > top[i-1].Lift {
			t.Errorf("top not sorted by lift: %v", top)
		}
	}
	// n larger than available clamps.
	if got := TopByLift(rules, 10000); len(got) != len(rules) {
		t.Errorf("TopByLift over-clamp: %d", len(got))
	}
}

func TestStringFormat(t *testing.T) {
	r := Rule{Antecedent: itemset.New(1), Consequent: itemset.New(2), Support: 3, Confidence: 0.5, Lift: 1.25}
	if got := r.String(); !strings.Contains(got, "=>") || !strings.Contains(got, "conf=0.500") {
		t.Errorf("String = %q", got)
	}
}

// Property: every generated rule satisfies its reported support and
// confidence against a direct horizontal count, and clears the threshold.
func TestQuickRulesSound(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25}
	law := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := &dataset.DB{Name: "rand"}
		nTrans := 8 + r.Intn(30)
		nItems := 3 + r.Intn(5)
		for i := 0; i < nTrans; i++ {
			var items []itemset.Item
			for it := 0; it < nItems; it++ {
				if r.Intn(2) == 0 {
					items = append(items, itemset.Item(it))
				}
			}
			if len(items) == 0 {
				items = append(items, 0)
			}
			db.Transactions = append(db.Transactions, itemset.New(items...))
		}
		minSup := 2 + r.Intn(4)
		rec := db.Recode(minSup)
		res := must(eclat.Mine(rec, minSup, core.DefaultOptions(vertical.Diffset, 1)))
		minConf := 0.3 + r.Float64()*0.6
		count := func(s itemset.Itemset) int {
			c := 0
			for _, tr := range rec.DB.Transactions {
				if s.IsSubsetOf(tr) {
					c++
				}
			}
			return c
		}
		for _, rule := range Generate(res, minConf) {
			if rule.Antecedent.Intersect(rule.Consequent).Len() != 0 {
				return false
			}
			full := rule.Antecedent.Union(rule.Consequent)
			if count(full) != rule.Support {
				return false
			}
			wantConf := float64(rule.Support) / float64(count(rule.Antecedent))
			if math.Abs(wantConf-rule.Confidence) > 1e-9 || rule.Confidence < minConf {
				return false
			}
		}
		return true
	}
	if err := quick.Check(law, cfg); err != nil {
		t.Errorf("rule soundness: %v", err)
	}
}

// Property: rule generation is complete — every (X ⇒ Y) over a frequent
// X∪Y with conf >= minConf appears. Checked exhaustively on small results.
func TestQuickRulesComplete(t *testing.T) {
	cfg := &quick.Config{MaxCount: 15}
	law := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := &dataset.DB{Name: "rand"}
		for i := 0; i < 12+r.Intn(10); i++ {
			var items []itemset.Item
			for it := 0; it < 4; it++ {
				if r.Intn(2) == 0 {
					items = append(items, itemset.Item(it))
				}
			}
			if len(items) == 0 {
				items = append(items, 0)
			}
			db.Transactions = append(db.Transactions, itemset.New(items...))
		}
		minSup := 2
		rec := db.Recode(minSup)
		res := must(eclat.Mine(rec, minSup, core.DefaultOptions(vertical.Tidset, 1)))
		minConf := 0.5
		rules := Generate(res, minConf)
		have := make(map[string]bool)
		for _, rule := range rules {
			have[rule.Antecedent.Key()+"|"+rule.Consequent.Key()] = true
		}
		support := res.ByKey()
		// Enumerate all splits of all frequent itemsets.
		for _, c := range res.Counts {
			full := c.Items
			if len(full) < 2 {
				continue
			}
			// All non-empty proper subsets as consequents.
			n := len(full)
			for mask := 1; mask < (1<<n)-1; mask++ {
				var y itemset.Itemset
				for b := 0; b < n; b++ {
					if mask&(1<<b) != 0 {
						y = append(y, full[b])
					}
				}
				y = itemset.New(y...)
				x := full.Minus(y)
				conf := float64(c.Support) / float64(support[x.Key()])
				if conf >= minConf && !have[x.Key()+"|"+y.Key()] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(law, cfg); err != nil {
		t.Errorf("rule completeness: %v", err)
	}
}

// must unwraps the miner's (result, error) pair.
func must(res *core.Result, err error) *core.Result {
	if err != nil {
		panic(err)
	}
	return res
}
