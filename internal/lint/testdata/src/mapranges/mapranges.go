// Package mapranges exercises the maprange analyzer: unordered map
// iteration is flagged, slice iteration is not, and justified
// //lint:ordered (or //lint:maprange) sites are exempt.
package mapranges

import "sort"

func keys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m { // want "nondeterministic iteration order"
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sendAll(m map[string]int, send func(string)) {
	for _, k := range keys(m) { // slice range: not a finding
		send(k)
	}
}

func sum(m map[string]int) int {
	total := 0
	//lint:ordered commutative sum; visit order cannot be observed
	for _, v := range m {
		total += v
	}
	return total
}

func sumSameLine(m map[string]int) int {
	total := 0
	for _, v := range m { //lint:maprange commutative sum, alias keyword
		total += v
	}
	return total
}

type set map[uint64]struct{}

func union(dst, src set) {
	//lint:ordered set union; insertion order is unobservable
	for k := range src {
		dst[k] = struct{}{}
	}
}

func bare(m map[string]int) {
	for k := range m { /* want "needs a justification" */ //lint:ordered
		_ = k
	}
}

func wrongKeyword(m map[string]int) {
	//lint:walltime a directive for a different analyzer does not suppress
	for k := range m { // want "nondeterministic iteration order"
		_ = k
	}
}

// A directive that suppresses a finding is used (sum, union above);
// one that suppresses nothing is stale, whichever keyword it uses.
func sliceSum(xs []int) int {
	total := 0
	/* want "suppresses nothing" */ //lint:ordered a slice range needs no exemption
	for _, v := range xs {
		total += v
	}
	for _, v := range xs { /* want "suppresses nothing" */ //lint:maprange nor under the analyzer's own name
		total += v
	}
	return total
}
