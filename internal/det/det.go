// Package det holds the canonical sorted-iteration helpers for every
// library package the simulation runs.
//
// Go's map iteration order is deliberately randomized, so a `for
// range` over a map whose visit order reaches anything observable — a
// datagram send, a lock wake-up, a trace event — breaks byte-identical
// simulation replay. That is exactly the bug class the deterministic-
// replay test caught in core/messaging.go's retry fan-out. The
// camelot-lint maprange analyzer flags every map range in the
// library packages; the approved fixes are to route the keys
// through this package or to justify the site with a
// `//lint:ordered <why>` comment when the loop is provably
// order-insensitive.
//
// This package itself is the one place allowed to range over maps
// without annotation: every helper here sorts before anything escapes.
package det

import (
	"cmp"
	"sort"
)

// SortedKeys returns m's keys in ascending order. It is the canonical
// way for a library package to iterate a map with an ordered
// key type:
//
//	for _, s := range det.SortedKeys(f.remoteSites) { ... }
func SortedKeys[M ~map[K]V, K cmp.Ordered, V any](m M) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
