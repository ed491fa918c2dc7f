// Package itemset defines items and itemsets, the basic vocabulary of
// frequent itemset mining, together with the ordering and prefix operations
// that candidate generation in both Apriori and Eclat rely on.
//
// An Item is a dense non-negative integer code. Databases recode their raw
// item identifiers to this dense space (see package dataset), which keeps
// itemsets small and lets vertical representations be indexed by item.
//
// An Itemset is always kept sorted ascending; every constructor and
// operation in this package preserves that invariant. Sortedness is what
// makes prefix sharing — the generation rule of both miners — a O(k)
// comparison instead of a set operation.
package itemset

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Item is a dense item code. Items are compared by their integer value;
// the mining algorithms assume candidates are generated in this order.
type Item = uint32

// Itemset is a sorted, duplicate-free set of items.
type Itemset []Item

// New returns a sorted, deduplicated itemset built from items.
// The input slice is not modified.
func New(items ...Item) Itemset {
	if len(items) == 0 {
		return Itemset{}
	}
	s := make(Itemset, len(items))
	copy(s, items)
	slices.Sort(s)
	// Deduplicate in place.
	w := 1
	for r := 1; r < len(s); r++ {
		if s[r] != s[w-1] {
			s[w] = s[r]
			w++
		}
	}
	return s[:w]
}

// Clone returns an independent copy of s.
func (s Itemset) Clone() Itemset {
	c := make(Itemset, len(s))
	copy(c, s)
	return c
}

// Len returns the number of items; a k-itemset has Len() == k.
func (s Itemset) Len() int { return len(s) }

// Contains reports whether item x is a member of s, by binary search.
func (s Itemset) Contains(x Item) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= x })
	return i < len(s) && s[i] == x
}

// IsSorted reports whether s satisfies the package invariant
// (strictly ascending).
func (s Itemset) IsSorted() bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] >= s[i] {
			return false
		}
	}
	return true
}

// Equal reports whether s and t contain exactly the same items.
func (s Itemset) Equal(t Itemset) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Compare orders itemsets lexicographically, shorter-prefix first.
// It returns -1, 0, or +1.
func (s Itemset) Compare(t Itemset) int {
	n := len(s)
	if len(t) < n {
		n = len(t)
	}
	for i := 0; i < n; i++ {
		switch {
		case s[i] < t[i]:
			return -1
		case s[i] > t[i]:
			return 1
		}
	}
	switch {
	case len(s) < len(t):
		return -1
	case len(s) > len(t):
		return 1
	}
	return 0
}

// SharesPrefix reports whether s and t have identical first k items.
// Both must have at least k items.
func (s Itemset) SharesPrefix(t Itemset, k int) bool {
	if len(s) < k || len(t) < k {
		return false
	}
	for i := 0; i < k; i++ {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Join merges two k-itemsets that share a (k-1)-prefix into the (k+1)
// candidate, per the classic Apriori/Eclat generation rule. It returns
// ok=false when the precondition does not hold (different lengths, prefix
// mismatch, or equal last items).
func (s Itemset) Join(t Itemset) (Itemset, bool) {
	k := len(s)
	if k == 0 || len(t) != k || !s.SharesPrefix(t, k-1) || s[k-1] == t[k-1] {
		return nil, false
	}
	c := make(Itemset, k+1)
	copy(c, s[:k-1])
	if s[k-1] < t[k-1] {
		c[k-1], c[k] = s[k-1], t[k-1]
	} else {
		c[k-1], c[k] = t[k-1], s[k-1]
	}
	return c, true
}

// Extend returns a new itemset with x appended. x must be greater than the
// last item of s; Extend panics otherwise, since a violation means the
// caller has broken the candidate-generation order invariant.
func (s Itemset) Extend(x Item) Itemset {
	if len(s) > 0 && x <= s[len(s)-1] {
		panic(fmt.Sprintf("itemset: Extend(%d) violates ascending order (last=%d)", x, s[len(s)-1]))
	}
	c := make(Itemset, len(s)+1)
	copy(c, s)
	c[len(s)] = x
	return c
}

// Union returns the set union of s and t as a new itemset.
func (s Itemset) Union(t Itemset) Itemset {
	c := make(Itemset, 0, len(s)+len(t))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			c = append(c, s[i])
			i++
		case s[i] > t[j]:
			c = append(c, t[j])
			j++
		default:
			c = append(c, s[i])
			i++
			j++
		}
	}
	c = append(c, s[i:]...)
	c = append(c, t[j:]...)
	return c
}

// Intersect returns the set intersection of s and t as a new itemset.
func (s Itemset) Intersect(t Itemset) Itemset {
	var c Itemset
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			i++
		case s[i] > t[j]:
			j++
		default:
			c = append(c, s[i])
			i++
			j++
		}
	}
	return c
}

// Minus returns s \ t as a new itemset.
func (s Itemset) Minus(t Itemset) Itemset {
	var c Itemset
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			c = append(c, s[i])
			i++
		case s[i] > t[j]:
			j++
		default:
			i++
			j++
		}
	}
	c = append(c, s[i:]...)
	return c
}

// IsSubsetOf reports whether every item of s is in t.
func (s Itemset) IsSubsetOf(t Itemset) bool {
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] == t[j]:
			i++
			j++
		case s[i] > t[j]:
			j++
		default:
			return false
		}
	}
	return i == len(s)
}

// Subsets of size k-1: for a k-itemset, AllButOne calls f with each
// (k-1)-subset, reusing a single scratch buffer. f must not retain the
// slice past the call. Used by Apriori's subset-pruning step.
func (s Itemset) AllButOne(f func(Itemset)) {
	if len(s) == 0 {
		return
	}
	buf := make(Itemset, len(s)-1)
	for skip := range s {
		w := 0
		for i, x := range s {
			if i == skip {
				continue
			}
			buf[w] = x
			w++
		}
		f(buf)
	}
}

// Key returns a canonical string encoding of s, usable as a map key.
// The encoding is compact and unambiguous (little-endian varint-free:
// fixed 4-byte big-endian per item).
func (s Itemset) Key() string {
	b := make([]byte, 4*len(s))
	for i, x := range s {
		b[4*i] = byte(x >> 24)
		b[4*i+1] = byte(x >> 16)
		b[4*i+2] = byte(x >> 8)
		b[4*i+3] = byte(x)
	}
	return string(b)
}

// FromKey decodes an itemset previously encoded with Key.
func FromKey(k string) (Itemset, error) {
	if len(k)%4 != 0 {
		return nil, fmt.Errorf("itemset: malformed key of length %d", len(k))
	}
	s := make(Itemset, len(k)/4)
	for i := range s {
		s[i] = uint32(k[4*i])<<24 | uint32(k[4*i+1])<<16 | uint32(k[4*i+2])<<8 | uint32(k[4*i+3])
	}
	if !s.IsSorted() {
		return nil, fmt.Errorf("itemset: key decodes to unsorted itemset %v", s)
	}
	return s, nil
}

// String renders the itemset in the conventional {a, b, c} form.
func (s Itemset) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, x := range s {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(strconv.FormatUint(uint64(x), 10))
	}
	sb.WriteByte('}')
	return sb.String()
}

// Sort sorts a slice of itemsets into the canonical Compare order.
// Useful for making mining output deterministic regardless of the
// parallel schedule that produced it.
func Sort(sets []Itemset) {
	slices.SortFunc(sets, Itemset.Compare)
}
