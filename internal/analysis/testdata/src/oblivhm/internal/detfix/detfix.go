// Package detfix exercises the determinism analyzer: wall-clock reads,
// unseeded randomness, map iteration (direct or through the maps
// iterators), sync.Map, and goroutine spawns, with seeded, sorted and
// annotated counterparts that must stay silent.
package detfix

import (
	"maps"
	"math/rand"
	"slices"
	"sync"
	"time"
)

// Clock reads the wall clock.
func Clock() time.Time {
	return time.Now() // want `time\.Now reads the wall clock`
}

// GlobalRand draws from the global unseeded source.
func GlobalRand() int {
	return rand.Intn(10) // want `draws from the global unseeded source`
}

// SeededRand threads an explicit seed: the sanctioned convention.
func SeededRand(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(10)
}

// MapOrder folds over a map in iteration order.
func MapOrder(m map[string]int) int {
	total := 0
	for _, v := range m { // want `iteration over a map`
		total -= v
	}
	return total
}

// SyncMapUse declares a sync.Map.
func SyncMapUse() {
	var m sync.Map // want `sync\.Map use`
	m.Store(1, 2)
}

// Spawn launches an unsanctioned goroutine.
func Spawn(fn func()) {
	go fn() // want `go statement outside the sanctioned`
}

// SanctionedSpawn carries the escape hatch with a reason.
func SanctionedSpawn(fn func()) {
	//oblivcheck:allow determinism: fixture for the annotation escape hatch
	go fn()
}

// SortedKeys is the annotated order-independent collection idiom.
func SortedKeys(m map[string]int) []string {
	var ks []string
	//oblivcheck:allow determinism: key collection, sorted by the caller
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}

// MapIterOrder ranges over a map's keys through an iterator.
func MapIterOrder(m map[string]int) []string {
	var ks []string
	for k := range maps.Keys(m) { // want `maps\.Keys iterates a map`
		ks = append(ks, k)
	}
	return ks
}

// MapIterUnsorted collects values and counts pairs in map order: neither
// iterator goes into a sort.
func MapIterUnsorted(m map[string]int) ([]int, int) {
	n := 0
	for range maps.All(m) { // want `maps\.All iterates a map`
		n++
	}
	return slices.Collect(maps.Values(m)), n // want `maps\.Values iterates a map`
}

// SortedMapKeys hands the iterator straight to slices.Sorted: the sorted
// listing needs no annotation.
func SortedMapKeys(m map[string]int) []string {
	return slices.Sorted(maps.Keys(m))
}

// SortedMapValues sorts through slices.SortedFunc.
func SortedMapValues(m map[string]int) []int {
	return slices.SortedFunc(maps.Values(m), func(a, b int) int { return a - b })
}
