package fim

import (
	"bytes"
	"cmp"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/verify"
	"repro/internal/vertical"
)

const classic = `1 2 5
2 4
2 3
1 2 4
1 3
2 3
1 3
1 2 3 5
1 2 3
`

func classicDB(t *testing.T) *DB {
	t.Helper()
	db, err := ReadFIMI("classic", strings.NewReader(classic))
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestMineFacade(t *testing.T) {
	db := classicDB(t)
	for _, algo := range []Algorithm{Apriori, Eclat, FPGrowth} {
		for _, rep := range []Representation{Tidset, Bitvector, Diffset} {
			res, err := Mine(db, 2.0/9.0, Options{Algorithm: algo, Representation: rep, Workers: 2})
			if err != nil {
				t.Fatalf("%v/%v: %v", algo, rep, err)
			}
			if res.Len() != 13 {
				t.Errorf("%v/%v: %d itemsets, want 13", algo, rep, res.Len())
			}
		}
	}
}

func TestMineValidation(t *testing.T) {
	db := classicDB(t)
	if _, err := Mine(nil, 0.5, Options{}); err == nil {
		t.Error("nil DB accepted")
	}
	if _, err := Mine(db, -0.1, Options{}); err == nil {
		t.Error("negative support accepted")
	}
	if _, err := Mine(db, 1.5, Options{}); err == nil {
		t.Error("support > 1 accepted")
	}
	if _, err := MineAbsolute(db, 0, Options{}); err == nil {
		t.Error("absolute support 0 accepted")
	}
	if _, err := Mine(db, 0.5, Options{Algorithm: Algorithm(42)}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

// TestMineRejectsOutOfRangeOptions: an enum option outside its range is
// an error from the entry point, never a panic deep inside a miner.
// Schedule policy 3 was the deleted work-stealing policy.
func TestMineRejectsOutOfRangeOptions(t *testing.T) {
	db := classicDB(t)
	cases := []struct {
		name string
		opt  Options
	}{
		{"algorithm", Options{Algorithm: Algorithm(99)}},
		{"representation", Options{Algorithm: Eclat, Representation: Representation(99)}},
		{"schedule-policy", Options{Algorithm: Eclat, Schedule: &Schedule{Policy: SchedulePolicy(99)}}},
		{"schedule-policy-3", Options{Algorithm: Eclat, Schedule: &Schedule{Policy: SchedulePolicy(3)}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked: %v", r)
				}
			}()
			if _, err := MineAbsolute(db, 2, c.opt); err == nil {
				t.Error("out-of-range option accepted")
			}
		})
	}
}

// TestMineAgainstReference: each algorithm mines the classic database
// to the reference miner's itemsets and supports. Mine codes items by
// ascending support and the reference runs over a by-code recode, so
// the two are compared by decoded content.
func TestMineAgainstReference(t *testing.T) {
	db := classicDB(t)
	want := verify.Reference(db.Recode(2), 2).Decoded()
	for _, algo := range []Algorithm{Apriori, Eclat, FPGrowth} {
		opt := DefaultOptions(4)
		opt.Algorithm = algo
		res, err := Mine(db, 2.0/9.0, opt)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if d := decodedDiff(res.Decoded(), want); d != "" {
			t.Errorf("%v vs reference: %s", algo, d)
		}
	}
}

func TestRulesFacade(t *testing.T) {
	db := classicDB(t)
	res, err := Mine(db, 2.0/9.0, DefaultOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	rules := Rules(res, 0.6)
	if len(rules) == 0 {
		t.Fatal("no rules")
	}
	for _, r := range rules {
		if r.Confidence < 0.6 {
			t.Errorf("rule %v below confidence threshold", r)
		}
	}
	top := TopRulesByLift(rules, 2)
	if len(top) != 2 {
		t.Errorf("TopRulesByLift = %d", len(top))
	}
	d := DecodeRule(res, rules[0])
	if d.Support != rules[0].Support {
		t.Error("decode changed support")
	}
}

func TestCondensationFacade(t *testing.T) {
	db := classicDB(t)
	res, _ := Mine(db, 2.0/9.0, DefaultOptions(1))
	cl := ClosedItemsets(res)
	mx := MaximalItemsets(res)
	if len(mx) > len(cl) || len(cl) > res.Len() {
		t.Errorf("condensation ordering violated: %d maximal, %d closed, %d all",
			len(mx), len(cl), res.Len())
	}
}

func TestDatasetFacade(t *testing.T) {
	names := DatasetNames()
	if len(names) != 6 {
		t.Fatalf("DatasetNames = %v", names)
	}
	db, err := Dataset("chess", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if db.NumTransactions() == 0 {
		t.Error("empty chess build")
	}
	if _, err := Dataset("nope", 1); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestSimulateFacade(t *testing.T) {
	db := classicDB(t)
	trace := &Trace{}
	if _, err := Mine(db, 2.0/9.0, Options{Algorithm: Eclat, Representation: Diffset, Workers: 1, Trace: trace}); err != nil {
		t.Fatal(err)
	}
	if len(trace.Loops) == 0 {
		t.Fatal("trace empty")
	}
	// A traced run keeps both halves of every loop its team ran.
	for _, l := range trace.Loops {
		if l.Model == nil || (l.Model.Tasks() > 0) != (l.Load != nil) {
			t.Errorf("loop %q: model %v, load %v", l.Name, l.Model, l.Load)
		}
	}
	cfg := Blacklight()
	one := Simulate(trace, 1, cfg)
	many := Simulate(trace, 64, cfg)
	if one <= 0 || many <= 0 || many > one {
		t.Errorf("simulated times: 1->%v 64->%v", one, many)
	}
	sp := SimulateSpeedup(trace, []int{1, 16}, cfg)
	if sp[0] < 0.99 || sp[0] > 1.01 || sp[1] <= 1 {
		t.Errorf("speedups = %v", sp)
	}
}

func TestFIMIRoundTripFacade(t *testing.T) {
	db := classicDB(t)
	var buf bytes.Buffer
	if err := WriteFIMI(&buf, db); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFIMI("rt", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumTransactions() != db.NumTransactions() {
		t.Error("round trip changed size")
	}
}

func TestReadFIMIFile(t *testing.T) {
	path := t.TempDir() + "/mini.dat"
	if err := writeFile(path, "1 2\n2 3\n"); err != nil {
		t.Fatal(err)
	}
	db, err := ReadFIMIFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if db.NumTransactions() != 2 {
		t.Errorf("transactions = %d", db.NumTransactions())
	}
	if _, err := ReadFIMIFile(path + ".missing"); err == nil {
		t.Error("missing file accepted")
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// TestMineCodesByAscendingSupport checks the engine-wide item order:
// for every algorithm and representation, the dense codes of the result
// ascend by support, ties by item id, and the decoded result equals the
// reference. The mushroom build's support order differs from its id
// order, so a run that kept by-code order would fail the first check.
func TestMineCodesByAscendingSupport(t *testing.T) {
	db, err := Dataset("mushroom", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	minSup := db.AbsoluteSupport(0.4)
	byCode := db.Recode(minSup)
	if slices.IsSortedFunc(byCode.Items, bySupport) {
		t.Fatal("test database has its item ids already in support order")
	}
	want := verify.Reference(byCode, minSup).Decoded()
	for _, algo := range []Algorithm{Apriori, Eclat, FPGrowth} {
		for _, rep := range vertical.AllKinds() {
			res, err := MineAbsolute(db, minSup, Options{Algorithm: algo, Representation: rep, Workers: 2})
			if err != nil {
				t.Fatalf("%v/%v: %v", algo, rep, err)
			}
			if !slices.IsSortedFunc(res.Rec.Items, bySupport) {
				t.Errorf("%v/%v: codes not in ascending support order: %+v", algo, rep, res.Rec.Items)
			}
			if d := decodedDiff(res.Decoded(), want); d != "" {
				t.Errorf("%v/%v vs reference: %s", algo, rep, d)
			}
		}
	}
}

// bySupport orders frequent items by support, ties by item id.
func bySupport(a, b dataset.FrequentItem) int {
	if c := cmp.Compare(a.Support, b.Support); c != 0 {
		return c
	}
	return cmp.Compare(a.Original, b.Original)
}
