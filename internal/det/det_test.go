package det

import (
	"reflect"
	"testing"
)

func TestSortedKeys(t *testing.T) {
	m := map[uint32]string{3: "c", 1: "a", 2: "b"}
	for i := 0; i < 50; i++ { // map order is randomized; 50 draws would expose instability
		got := SortedKeys(m)
		if want := []uint32{1, 2, 3}; !reflect.DeepEqual(got, want) {
			t.Fatalf("SortedKeys = %v, want %v", got, want)
		}
	}
	if got := SortedKeys(map[string]int(nil)); len(got) != 0 {
		t.Fatalf("SortedKeys(nil) = %v, want empty", got)
	}
}
