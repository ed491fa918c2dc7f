package fim

// Differential fuzzing of the whole miner against the independent
// reference miner: every input is a small database, a minimum support
// and one point of the configuration space (representation, algorithm,
// schedule, depth, workers, memory budget, degrade). A
// completed run must mine exactly the reference's decoded itemsets and
// supports; a run stopped by its memory budget must keep the run-control
// contract instead — a subset of the reference, every support exact.
//
//	go test -run '^$' -fuzz '^FuzzMineMatchesReference$' -fuzztime 10s .

import (
	"errors"
	"testing"

	"repro/internal/itemset"
	"repro/internal/verify"
	"repro/internal/vertical"
)

const (
	fuzzMaxRows  = 40
	fuzzMaxItems = 12
)

// fuzzDB turns bytes into at most fuzzMaxRows transactions over
// fuzzMaxItems items: each pair of bytes is one row's item bitmask.
// Rows may be empty.
func fuzzDB(rows []byte) *DB {
	db := &DB{Name: "fuzz"}
	for r := 0; r+1 < len(rows) && len(db.Transactions) < fuzzMaxRows; r += 2 {
		mask := (uint16(rows[r]) | uint16(rows[r+1])<<8) & (1<<fuzzMaxItems - 1)
		var items []itemset.Item
		for it := 0; it < fuzzMaxItems; it++ {
			if mask&(1<<it) != 0 {
				items = append(items, itemset.Item(it))
			}
		}
		db.Transactions = append(db.Transactions, itemset.New(items...))
	}
	return db
}

// fuzzOptions decodes one configuration vector from cfg:
//
//	bits 0-2   representation, vertical.AllKinds()[v % 6]
//	bit  3     Eclat (else Apriori)
//	bits 4-6   schedule, v % 4: default, static, dynamic, guided
//	bits 7-9   Eclat depth, v % 5 (0 = default)
//	bit  10    reserved, ignored (was the item-order knob; every run
//	           now codes items by ascending support)
//	bit  11    2 workers (else 1)
//	bit  12    memory budget of 32·(bits 16-23 + 1) bytes
//	bit  13    DegradeToDiffset
//	bits 24-26 schedule chunk size
func fuzzOptions(cfg uint32) Options {
	kinds := vertical.AllKinds()
	opt := Options{
		Algorithm:        Apriori,
		Representation:   kinds[int(cfg&7)%len(kinds)],
		EclatDepth:       int(cfg>>7&7) % 5,
		Workers:          1,
		DegradeToDiffset: cfg&(1<<13) != 0,
	}
	if cfg&(1<<3) != 0 {
		opt.Algorithm = Eclat
	}
	if s := int(cfg>>4&7) % 4; s > 0 {
		opt.Schedule = &Schedule{Policy: []SchedulePolicy{Static, Dynamic, Guided}[s-1], Chunk: int(cfg >> 24 & 7)}
	}
	if cfg&(1<<11) != 0 {
		opt.Workers = 2
	}
	if cfg&(1<<12) != 0 {
		opt.MaxMemoryBytes = 32 * (int64(cfg>>16&0xff) + 1)
	}
	return opt
}

func FuzzMineMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, cfg uint32, minSupRaw uint8, rows []byte) {
		db := fuzzDB(rows)
		// 1..|D|+1: minsup = |D| and "nothing frequent" are both in range.
		minSup := 1 + int(minSupRaw)%(len(db.Transactions)+1)
		opt := fuzzOptions(cfg)
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("%+v minsup=%d rows=%d: "+format,
				append([]any{opt, minSup, len(db.Transactions)}, args...)...)
		}

		want := verify.Reference(db.Recode(minSup), minSup).Decoded()
		res, err := MineAbsolute(db, minSup, opt)
		if err == nil {
			if res.Incomplete {
				fail("complete run marked Incomplete")
			}
			if d := decodedDiff(res.Decoded(), want); d != "" {
				fail("vs reference: %s", d)
			}
			return
		}

		var berr *BudgetError
		if !errors.As(err, &berr) || berr.Resource != "memory" || opt.MaxMemoryBytes == 0 {
			fail("unexpected error %v", err)
		}
		if res == nil || !res.Incomplete {
			fail("budget stop without an Incomplete partial result")
		}
		sups := make(map[string]int, len(want))
		for _, c := range want {
			sups[c.Items.Key()] = c.Support
		}
		for _, c := range res.Decoded() {
			if sup, ok := sups[c.Items.Key()]; !ok || sup != c.Support {
				fail("stopped run reports %v/%d, reference has support %d (present %v)",
					c.Items, c.Support, sup, ok)
			}
		}
	})
}
