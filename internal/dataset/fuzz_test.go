package dataset

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"

	"repro/internal/itemset"
)

// referenceReadFIMILimits is the straightforward reader ReadFIMILimits
// must agree with: each token is copied to a string and parsed by
// strconv.ParseUint, and each transaction built by itemset.New.
func referenceReadFIMILimits(name string, r io.Reader, lim Limits) (*DB, error) {
	db := &DB{Name: name}
	sc := bufio.NewScanner(r)
	maxLine := 1 << 24
	if lim.MaxLineBytes > 0 && lim.MaxLineBytes < maxLine {
		maxLine = lim.MaxLineBytes
	}
	sc.Buffer(make([]byte, 0, min(1<<20, maxLine)), maxLine+1)
	lineNo := 0
	var totalItems int64
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		var items []itemset.Item
		i := 0
		for i < len(line) {
			for i < len(line) && (line[i] == ' ' || line[i] == '\t' || line[i] == '\r') {
				i++
			}
			if i >= len(line) {
				break
			}
			start := i
			for i < len(line) && line[i] != ' ' && line[i] != '\t' && line[i] != '\r' {
				i++
			}
			tok := string(line[start:i])
			if tok[0] == '-' {
				return nil, &ParseError{Name: name, Line: lineNo, Token: tok, Msg: "negative item"}
			}
			v, err := strconv.ParseUint(tok, 10, 32)
			if err != nil {
				msg := "bad item"
				if ne, ok := err.(*strconv.NumError); ok && ne.Err == strconv.ErrRange {
					msg = "item out of range"
				}
				return nil, &ParseError{Name: name, Line: lineNo, Token: tok, Msg: msg}
			}
			items = append(items, itemset.Item(v))
		}
		if len(items) == 0 {
			continue
		}
		totalItems += int64(len(items))
		if lim.MaxTotalItems > 0 && totalItems > lim.MaxTotalItems {
			return nil, &ParseError{Name: name, Line: lineNo,
				Msg: fmt.Sprintf("total item count exceeds limit %d", lim.MaxTotalItems)}
		}
		if lim.MaxTransactions > 0 && len(db.Transactions) >= lim.MaxTransactions {
			return nil, &ParseError{Name: name, Line: lineNo,
				Msg: fmt.Sprintf("transaction count exceeds limit %d", lim.MaxTransactions)}
		}
		db.Transactions = append(db.Transactions, itemset.New(items...))
	}
	if err := sc.Err(); err != nil {
		if err == bufio.ErrTooLong {
			return nil, &ParseError{Name: name, Line: lineNo + 1,
				Msg: fmt.Sprintf("line exceeds %d bytes", maxLine)}
		}
		return nil, fmt.Errorf("dataset: %s: %v", name, err)
	}
	return db, nil
}

// sameRead fails t unless ReadFIMILimits and the reference agree on
// input: equal transactions when both accept, equal *ParseError fields
// when both reject.
func sameRead(t *testing.T, input string, lim Limits) {
	t.Helper()
	db, err := ReadFIMILimits("fuzz", strings.NewReader(input), lim)
	want, wantErr := referenceReadFIMILimits("fuzz", strings.NewReader(input), lim)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%q: error %v, reference %v", input, err, wantErr)
	}
	if err != nil {
		var pe, wpe *ParseError
		if !errors.As(err, &pe) || !errors.As(wantErr, &wpe) {
			t.Fatalf("%q: error %v, reference %v: not both *ParseError", input, err, wantErr)
		}
		if *pe != *wpe {
			t.Fatalf("%q: error %+v, reference %+v", input, *pe, *wpe)
		}
		return
	}
	if len(db.Transactions) != len(want.Transactions) {
		t.Fatalf("%q: %d transactions, reference %d", input, len(db.Transactions), len(want.Transactions))
	}
	for i, tr := range db.Transactions {
		if !tr.Equal(want.Transactions[i]) {
			t.Fatalf("%q: transaction %d = %v, reference %v", input, i, tr, want.Transactions[i])
		}
		if cap(tr) != len(tr) {
			t.Fatalf("%q: transaction %d has spare capacity %d", input, i, cap(tr)-len(tr))
		}
	}
}

// FuzzReadFIMI checks the reader never panics, agrees with the reference
// reader on every input, and that every accepted database is well-formed
// (sorted, deduplicated transactions) and round-trips through WriteFIMI.
func FuzzReadFIMI(f *testing.F) {
	f.Add("1 2 3\n4 5\n")
	f.Add("")
	f.Add("  7   7 7\n\n\n9\n")
	f.Add("999999999 0\n")
	f.Add("1 x\n")
	f.Add("-1\n")
	f.Add("\t\r\n 3\r\n")
	f.Add("4294967295\n")           // max uint32 item
	f.Add("4294967296\n")           // one past: out of range
	f.Add("99999999999999999999\n") // far out of range
	f.Add("-0\n")                   // negative zero token
	f.Add("1 -2 3\n")               // negative mid-transaction
	f.Add("2.5\n")                  // non-integer token
	f.Add("+3\n")                   // explicit plus sign
	f.Add("0x10\n")                 // hex prefix
	f.Add("1\x002\n")               // NUL inside a token
	f.Add("7 \t 8\r")               // trailing CR without LF
	f.Add(" \t \r \n")              // whitespace-only lines
	f.Add("42949672950\n")          // overflows on the last digit
	f.Add("99999999999x\n")         // overflow before the bad byte
	f.Add("9x99999999999\n")        // bad byte before the overflow
	f.Add("007 7 00\n")             // leading zeros
	f.Add("3 1 2 1\n5 4\n")         // unsorted, duplicated
	f.Add("1\v2\n")                 // vertical tab is not a separator
	f.Fuzz(func(t *testing.T, input string) {
		sameRead(t, input, Limits{})
		db, err := ReadFIMI("fuzz", strings.NewReader(input))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		for _, tr := range db.Transactions {
			if len(tr) == 0 {
				t.Fatal("empty transaction accepted")
			}
			if !tr.IsSorted() {
				t.Fatalf("unsorted transaction: %v", tr)
			}
		}
		var buf strings.Builder
		if err := WriteFIMI(&buf, db); err != nil {
			t.Fatalf("WriteFIMI: %v", err)
		}
		back, err := ReadFIMI("fuzz2", strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if back.NumTransactions() != db.NumTransactions() {
			t.Fatalf("round trip changed size: %d vs %d", back.NumTransactions(), db.NumTransactions())
		}
		for i := range db.Transactions {
			if !back.Transactions[i].Equal(db.Transactions[i]) {
				t.Fatalf("round trip changed transaction %d", i)
			}
		}
	})
}

// FuzzReadFIMILimits checks the hardened reader never panics, agrees
// with the reference reader, never accepts a database outside its
// limits, and fails limit breaches with a typed *ParseError — the
// untrusted-upload contract the serving layer depends on.
func FuzzReadFIMILimits(f *testing.F) {
	// Seeds around each limit boundary.
	f.Add("1 2 3\n4 5\n", 32, 4, int64(8))
	f.Add(strings.Repeat("7 ", 40)+"\n", 16, 0, int64(0))              // line over MaxLineBytes
	f.Add("1\n2\n3\n4\n5\n", 0, 3, int64(0))                           // transactions over limit
	f.Add("1 2 3 4 5 6 7 8 9 10\n", 0, 0, int64(5))                    // items over limit
	f.Add("5 5 5 5\n", 0, 0, int64(3))                                 // dedup must not evade the item cap
	f.Add("11111111\n", 8, 0, int64(0))                                // line exactly at the cap
	f.Add("\n\n\n9\n", 4, 1, int64(1))                                 // blank lines are free
	f.Add("4294967295 0\n-1\n", 64, 8, int64(16))                      // parse error under limits
	f.Add(strings.Repeat("1\n", 100), 0, 99, int64(0))                 // one past MaxTransactions
	f.Add("1 2\n"+strings.Repeat("3 ", 1000)+"\n", 1024, 10, int64(3)) // item cap binds before line cap
	f.Fuzz(func(t *testing.T, input string, maxLine, maxTrans int, maxItems int64) {
		// Keep limits in a sane range so the fuzzer explores behaviour,
		// not int overflow of the limits themselves.
		if maxLine < 0 || maxTrans < 0 || maxItems < 0 {
			return
		}
		lim := Limits{MaxLineBytes: maxLine, MaxTransactions: maxTrans, MaxTotalItems: maxItems}
		sameRead(t, input, lim)
		db, err := ReadFIMILimits("fuzz", strings.NewReader(input), lim)
		if err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) && strings.Contains(err.Error(), "exceeds") {
				t.Fatalf("limit breach not a *ParseError: %v", err)
			}
			return
		}
		// Accepted: the database must actually be inside the limits.
		if maxTrans > 0 && db.NumTransactions() > maxTrans {
			t.Fatalf("accepted %d transactions over limit %d", db.NumTransactions(), maxTrans)
		}
		var items int64
		for _, tr := range db.Transactions {
			if maxLine > 0 && len(tr)*2-1 > maxLine+1 {
				t.Fatalf("accepted a transaction longer than any legal line")
			}
			items += int64(len(tr))
		}
		if maxItems > 0 && items > maxItems {
			t.Fatalf("accepted %d items over limit %d", items, maxItems)
		}
	})
}
