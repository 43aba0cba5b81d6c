package castore

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestPutGetRoundTrip(t *testing.T) {
	s := New()
	key := "bfs|plutus|2000|134217728|seed=3"
	d, err := s.Put(key, []byte(`{"cycles":42}`))
	if err != nil {
		t.Fatal(err)
	}
	if want := DigestOf([]byte(`{"cycles":42}`)); d != want {
		t.Fatalf("digest %s, want %s", d, want)
	}
	content, d2, err := s.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if d2 != d || string(content) != `{"cycles":42}` {
		t.Fatalf("Get = %q/%s", content, d2)
	}
	if _, _, err := s.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(missing) = %v, want ErrNotFound", err)
	}
}

// The digest is the plain SHA-256 of the content — pinned so the store
// layout is stable and debuggable with sha256sum.
func TestDigestIsSHA256(t *testing.T) {
	const want = "2cf24dba5fb0a30e26e83b2ac5b9e29e1b161e5c1fa7425e73043362938b9824"
	if got := DigestOf([]byte("hello")); got != want {
		t.Fatalf("DigestOf(hello) = %s, want %s", got, want)
	}
}

// Rebinding a key: identical content is idempotent (every worker
// producing the same bytes is the steady state); different content is
// the determinism alarm and must not clobber the original.
func TestDivergenceDetected(t *testing.T) {
	s := New()
	if _, err := s.Put("k", []byte("result-a")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("k", []byte("result-a")); err != nil {
		t.Fatalf("idempotent rebind failed: %v", err)
	}
	_, err := s.Put("k", []byte("result-b"))
	var div *DivergenceError
	if !errors.As(err, &div) {
		t.Fatalf("err = %v, want *DivergenceError", err)
	}
	if div.Key != "k" || div.Have == div.Got {
		t.Fatalf("bad divergence detail: %+v", div)
	}
	content, _, err := s.Get("k")
	if err != nil || string(content) != "result-a" {
		t.Fatalf("original binding clobbered: %q, %v", content, err)
	}
}

// Two keys may share one object (identical results for different
// cells dedup to a single stored blob).
func TestSharedObject(t *testing.T) {
	s := New()
	d1, _ := s.Put("k1", []byte("same"))
	d2, _ := s.Put("k2", []byte("same"))
	if d1 != d2 {
		t.Fatalf("identical content got digests %s and %s", d1, d2)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
}

// A disk-backed store must reload its bindings and objects across
// reopen, verify content hashes at load, and refuse corrupted objects.
func TestPersistReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.Put("stream|pssm|200|134217728", []byte("persisted"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("other", []byte("persisted")); err != nil {
		t.Fatal(err) // shared object, second index record
	}

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("reopened Len = %d, want 2", r.Len())
	}
	content, d2, err := r.Get("stream|pssm|200|134217728")
	if err != nil || string(content) != "persisted" || d2 != d {
		t.Fatalf("reopened Get = %q/%s, %v", content, d2, err)
	}
	if content, d3, err := r.Get("other"); err != nil || string(content) != "persisted" || d3 != d {
		t.Fatalf("reopened Get(other) = %q/%s, %v", content, d3, err)
	}

	// Corrupt the object on disk: reopen must fail loudly, not serve
	// bytes whose address lies.
	if err := os.WriteFile(filepath.Join(dir, "objects", d[:2], d), []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open accepted a corrupted object")
	}
}
