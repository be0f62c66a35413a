package topology

import (
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	if Chain.String() != "chain" || Tree.String() != "tree" || Star.String() != "star" {
		t.Fatal("kind names wrong")
	}
	if Kind(9).String() != "topology(9)" {
		t.Fatal("unknown kind name")
	}
}

func TestParseKind(t *testing.T) {
	for _, k := range []Kind{Chain, Tree, Star} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("ring"); err == nil {
		t.Fatal("unknown kind parsed")
	}
}

func TestChainShape(t *testing.T) {
	seeds, err := Seeds(Chain, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds[0]) != 0 {
		t.Fatal("root has seeds")
	}
	for i := 1; i < 5; i++ {
		if len(seeds[i]) != 1 || seeds[i][0] != i-1 {
			t.Fatalf("chain peer %d seeds = %v", i, seeds[i])
		}
	}
	if depth(seeds) != 4 {
		t.Fatalf("chain depth = %d, want 4", depth(seeds))
	}
}

func TestTreeShape(t *testing.T) {
	seeds, err := Seeds(Tree, 7)
	if err != nil {
		t.Fatal(err)
	}
	wantParents := []int{-1, 0, 0, 1, 1, 2, 2}
	for i := 1; i < 7; i++ {
		if seeds[i][0] != wantParents[i] {
			t.Fatalf("tree peer %d parent = %d, want %d", i, seeds[i][0], wantParents[i])
		}
	}
	if depth(seeds) != 2 {
		t.Fatalf("tree depth = %d, want 2", depth(seeds))
	}
}

func TestTreeDefaultFanout(t *testing.T) {
	seeds, _ := Seeds(Tree, 10)
	for i := 1; i < len(seeds); i++ {
		if len(seeds[i]) != 1 || seeds[i][0] != (i-1)/2 {
			t.Fatalf("tree peer %d seeds = %v: fanout is not 2", i, seeds[i])
		}
	}
}

func TestStarShape(t *testing.T) {
	seeds, err := Seeds(Star, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 6; i++ {
		if seeds[i][0] != 0 {
			t.Fatal("star spoke not seeded on hub")
		}
	}
	if depth(seeds) != 1 {
		t.Fatalf("star depth = %d", depth(seeds))
	}
}

func TestErrors(t *testing.T) {
	if _, err := Seeds(Chain, -1); err == nil {
		t.Fatal("negative n accepted")
	}
	if _, err := Seeds(Kind(42), 3); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestEmptyAndSingle(t *testing.T) {
	for _, k := range []Kind{Chain, Tree, Star} {
		for _, n := range []int{0, 1} {
			seeds, err := Seeds(k, n)
			if err != nil || len(seeds) != n {
				t.Fatalf("%v n=%d: %v, %v", k, n, seeds, err)
			}
			if depth(seeds) != 0 {
				t.Fatal("trivial depth not 0")
			}
		}
	}
}

// Property: every non-root peer seeds only on lower-indexed peers
// (deployable in order, acyclic), and the root never has seeds.
func TestAcyclicProperty(t *testing.T) {
	f := func(kindRaw, nRaw uint8) bool {
		kind := Kind(int(kindRaw) % 3)
		n := int(nRaw) % 200
		seeds, err := Seeds(kind, n)
		if err != nil || len(seeds) != n {
			return false
		}
		if n > 0 && len(seeds[0]) != 0 {
			return false
		}
		for i := 1; i < n; i++ {
			if len(seeds[i]) == 0 {
				return false // every non-root must be connected
			}
			for _, s := range seeds[i] {
				if s < 0 || s >= i {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// depth returns the longest seed-path length from any node to the root —
// the bootstrap propagation depth of the shape.
func depth(seeds [][]int) int {
	hops := make([]int, len(seeds))
	longest := 0
	for i := 1; i < len(seeds); i++ {
		for _, s := range seeds[i] {
			hops[i] = max(hops[i], hops[s]+1)
		}
		longest = max(longest, hops[i])
	}
	return longest
}
