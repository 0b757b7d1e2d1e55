package recman

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"camelot/internal/det"
	"camelot/internal/tid"
	"camelot/internal/wire"
)

// outcomeModel is the reference an OutcomeTable must agree with.
type outcomeModel map[tid.FamilyID]wire.Outcome

func (m outcomeModel) set(f tid.FamilyID, o wire.Outcome) {
	if o == wire.OutcomeUnknown {
		delete(m, f)
	} else {
		m[f] = o
	}
}

// modelFamilies are the ids the model test draws from: counters 0 and
// math.MaxUint32, both sides of the boundaries between 32-family
// words, and the same counters under several origins, the highest
// included.
var modelFamilies = func() []tid.FamilyID {
	var fs []tid.FamilyID
	for _, origin := range []tid.SiteID{0, 1, 2, math.MaxUint32} {
		for _, c := range []uint32{0, 1, 30, 31, 32, 33, 63, 64, 1000, math.MaxUint32 - 32, math.MaxUint32 - 1, math.MaxUint32} {
			fs = append(fs, tid.MakeFamily(origin, c))
		}
	}
	return fs
}()

// checkModel fails unless t answers exactly as ref does: every get,
// the count of definite outcomes, and the ordered walk.
func checkModel(t *testing.T, step int, op string, tab *OutcomeTable, ref outcomeModel) {
	t.Helper()
	for _, f := range modelFamilies {
		if got, want := tab.Get(f), ref[f]; got != want {
			t.Fatalf("step %d (%s): Get(%v) = %v, want %v", step, op, f, got, want)
		}
	}
	if got, want := tab.Len(), len(ref); got != want {
		t.Fatalf("step %d (%s): Len = %d, want %d", step, op, got, want)
	}
	var fams []tid.FamilyID
	walked := make(outcomeModel)
	tab.Range(func(f tid.FamilyID, o wire.Outcome) {
		fams = append(fams, f)
		walked[f] = o
	})
	if want := det.SortedKeys(ref); !slices.Equal(fams, want) {
		t.Fatalf("step %d (%s): Range order = %v, want %v", step, op, fams, want)
	}
	if !maps.Equal(walked, ref) {
		t.Fatalf("step %d (%s): Range = %v, want %v", step, op, walked, ref)
	}
	// A word no family occupies any more is deleted, not kept as zero,
	// and a word with one family is held in lone, any other in words.
	perWord := make(map[uint64]int)
	for f := range ref {
		perWord[uint64(f)>>slotBits]++
	}
	if got := len(tab.words) + len(tab.lone); got != len(perWord) {
		t.Fatalf("step %d (%s): %d words held for %d occupied", step, op, got, len(perWord))
	}
	for key := range tab.lone {
		if perWord[key] != 1 {
			t.Fatalf("step %d (%s): word %#x in lone holds %d families", step, op, key, perWord[key])
		}
	}
	for key := range tab.words {
		if perWord[key] < 2 {
			t.Fatalf("step %d (%s): word %#x in words holds %d families", step, op, key, perWord[key])
		}
	}
}

// randomTable fills a table and its reference with a few random
// outcomes.
func randomTable(rng *rand.Rand) (*OutcomeTable, outcomeModel) {
	tab, ref := &OutcomeTable{}, make(outcomeModel)
	for i := rng.Intn(8); i > 0; i-- {
		f := modelFamilies[rng.Intn(len(modelFamilies))]
		o := wire.Outcome(rng.Intn(3))
		tab.Set(f, o)
		ref.set(f, o)
	}
	return tab, ref
}

// TestOutcomeTableMatchesMap drives a seeded sequence of set, delete,
// merge, drop and clone against a map[tid.FamilyID]wire.Outcome and
// compares the two after every step.
func TestOutcomeTableMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab, ref := &OutcomeTable{}, make(outcomeModel)
		for step := 0; step < 500; step++ {
			f := modelFamilies[rng.Intn(len(modelFamilies))]
			var op string
			switch k := rng.Intn(10); {
			case k < 4:
				// Covers re-setting a family to the other outcome.
				o := wire.OutcomeCommit + wire.Outcome(rng.Intn(2))
				op = "set " + f.String() + " " + o.String()
				tab.Set(f, o)
				ref.set(f, o)
			case k < 6:
				// Covers deleting an absent family.
				op = "delete " + f.String()
				tab.Set(f, wire.OutcomeUnknown)
				ref.set(f, wire.OutcomeUnknown)
			case k < 8:
				src, srcRef := randomTable(rng)
				op = "merge"
				tab.Merge(src)
				maps.Copy(ref, srcRef)
				checkModel(t, step, "merge source", src, srcRef)
			case k < 9:
				src, srcRef := randomTable(rng)
				op = "drop"
				tab.Drop(src)
				for g := range srcRef {
					delete(ref, g)
				}
				checkModel(t, step, "drop source", src, srcRef)
			default:
				// The clone carries on; the original is scribbled over
				// and must not disturb it.
				op = "clone"
				old := tab
				c := tab.Clone()
				tab = &c
				for _, g := range modelFamilies[:8] {
					old.Set(g, wire.OutcomeAbort)
				}
			}
			checkModel(t, step, op, tab, ref)
		}
	}
}
