package advstore

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"

	"jxta/internal/advertisement"
	"jxta/internal/ids"
)

func resAdv(name string) *advertisement.Resource {
	return &advertisement.Resource{
		ResID: ids.FromName(ids.KindAdv, name),
		Name:  name,
		Attrs: []advertisement.IndexField{{Attr: "ram", Value: "512"}},
	}
}

func TestInternDedupesEqualAdvertisements(t *testing.T) {
	s := New()
	a, b := resAdv("cpu"), resAdv("cpu")
	if a == b {
		t.Fatal("test needs two distinct instances")
	}
	ha, hb := s.Intern(a), s.Intern(b)
	if ha != hb {
		t.Fatal("equal advertisements got distinct handles")
	}
	if ha.Adv() != advertisement.Advertisement(a) {
		t.Fatal("first instance interned must become the canonical one")
	}
	if hits, misses := s.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1, 1", hits, misses)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func TestDistinctAdvertisementsStaySeparate(t *testing.T) {
	s := New()
	ha, hb := s.Intern(resAdv("cpu")), s.Intern(resAdv("disk"))
	if ha == hb {
		t.Fatal("distinct advertisements shared a handle")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
}

func TestReleaseForgetsOnLastReference(t *testing.T) {
	s := New()
	h1 := s.Intern(resAdv("cpu"))
	h2 := s.Intern(resAdv("cpu"))
	h1.Release()
	if s.Len() != 1 {
		t.Fatal("released below the live reference count")
	}
	h2.Release()
	if s.Len() != 0 {
		t.Fatal("table kept an advertisement with no holders")
	}
	// A re-intern after the last release adopts the new instance.
	fresh := resAdv("cpu")
	h3 := s.Intern(fresh)
	if h3.Adv() != advertisement.Advertisement(fresh) {
		t.Fatal("re-intern did not adopt the fresh instance")
	}
	h3.Release()
}

// TestRetainAddsAReference: interning an equal advertisement again hands
// out the same handle with one more reference, so the table keeps it until
// both holders have released it.
func TestRetainAddsAReference(t *testing.T) {
	s := New()
	h := s.Intern(resAdv("cpu"))
	if s.Intern(resAdv("cpu")) != h {
		t.Fatal("an equal advertisement got a second handle")
	}
	h.Release()
	if s.Len() != 1 {
		t.Fatal("a handle still held was forgotten")
	}
	h.Release()
	if s.Len() != 0 {
		t.Fatal("fully released handle survived")
	}
}

func TestOverReleasePanics(t *testing.T) {
	s := New()
	h := s.Intern(resAdv("cpu"))
	h.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	h.Release()
}

func TestConcurrentInternRelease(t *testing.T) {
	// Shard goroutines intern and release the same small advertisement
	// population concurrently; run under -race this is the store's
	// thread-safety proof, and the final table must be empty.
	s := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				name := fmt.Sprintf("res%d", i%5)
				h := s.Intern(resAdv(name))
				if h.Adv().(*advertisement.Resource).Name != name {
					t.Errorf("handle for %q holds %q", name, h.Adv().(*advertisement.Resource).Name)
					return
				}
				if i%3 == 0 {
					s.Intern(resAdv(name)).Release()
				}
				h.Release()
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 0 {
		t.Fatalf("Len = %d after all releases, want 0", s.Len())
	}
}

// TestInternAllocs: interning an advertisement equal to one the store holds
// allocates nothing. The encoding that finds the handle is written on the
// stack, and a handle that retains its encoding is confirmed against it in
// place. The encode used to build a document tree for each call: 10 objects.
func TestInternAllocs(t *testing.T) {
	for _, retained := range []bool{false, true} {
		s := New()
		held := s.Intern(resAdv("cpu"))
		if retained {
			held.Bytes()
		}
		equal := resAdv("cpu")
		if got := testing.AllocsPerRun(100, func() { s.Intern(equal).Release() }); got != 0 {
			t.Errorf("retained encoding %v: Intern of an equal Resource costs %.0f objects, want 0", retained, got)
		}
		held.Release()
	}
}

// TestSharedFitsItsSizeClass: every distinct advertisement a node holds is
// one handle, so its size is what each costs beside the advertisement. The
// handle holds its encoding's slice header inline, which a pointer to a
// header of its own cost one more object per first encode; with refs an
// int32 beside the 4-byte state word it fills the 80-byte class, where one
// more word puts every handle in the 96-byte class.
func TestSharedFitsItsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Shared{}); size != 80 {
		t.Fatalf("Shared is %d bytes, not the 80 of its size class", size)
	}
}

// TestFirstBytesAllocs: a handle's first encode costs its bytes and nothing
// beside them; every later call returns them without allocating.
func TestFirstBytesAllocs(t *testing.T) {
	s := New()
	a := resAdv("cpu")
	var sh *Shared
	if got := testing.AllocsPerRun(100, func() {
		sh = s.Intern(a)
		sh.Bytes()
		sh.Release()
	}); got != 2 {
		t.Errorf("Intern and a first Bytes cost %.0f objects, want 2: the handle and the encoding", got)
	}
	sh = s.Intern(a)
	sh.Bytes()
	if got := testing.AllocsPerRun(100, func() { sh.Bytes() }); got != 0 {
		t.Errorf("a retained Bytes costs %.0f objects, want 0", got)
	}
	sh.Release()
}
