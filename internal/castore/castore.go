// Package castore is the cluster's content-addressed result store.
// Objects (serialized run results) are stored by the SHA-256 of their
// bytes; an index maps harness run-cache keys — the same
// "bench|scheme|maxinsts|protectedBytes[|seed=N][|tamper=FP]" strings
// the single-box Runner dedups on — to object digests. Binding a key
// twice to the same digest is the expected steady state (every worker
// that executes a cell must produce the identical bytes); binding it to
// a different digest is a determinism violation, surfaced as a
// *DivergenceError rather than silently overwritten, because a
// divergent result means either a non-deterministic simulator or a
// misbehaving worker and the sweep's output can no longer be trusted.
//
// The store is safe for concurrent use but deliberately contains no
// goroutines or channels: it stays under simlint's default rawconc
// deny, so any concurrency bug has to live in the (allowlisted,
// auditable) coordinator, never in the store that checks results.
package castore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"github.com/plutus-gpu/plutus/internal/checkpoint"
)

// DivergenceError reports that a key was bound to two different object
// digests — two workers (or a worker and the local oracle) disagreed on
// the bytes of the same grid cell.
type DivergenceError struct {
	Key  string
	Have string // digest already bound
	Got  string // digest of the rejected content
}

func (e *DivergenceError) Error() string {
	return fmt.Sprintf("castore: divergent result for key %q: have %s, got %s", e.Key, e.Have, e.Got)
}

// ErrNotFound is returned by Get when nothing is bound.
var ErrNotFound = errors.New("castore: not found")

// Store is a content-addressed object store with a key index.
// The zero value is not usable; use New or Open.
type Store struct {
	mu      sync.Mutex
	objects map[string][]byte // digest -> content
	index   map[string]string // key -> digest
	dir     string            // "" = memory-only
}

// New returns an empty in-memory store.
func New() *Store {
	return &Store{objects: map[string][]byte{}, index: map[string]string{}}
}

// Open returns a store persisted under dir, loading any existing
// objects and index. The layout is objects/<digest[:2]>/<digest> for
// content and index.jsonl (one {"key","digest"} record per binding,
// append-only) for the key index. Loading verifies every indexed
// object's digest; corruption fails Open rather than surfacing later as
// a phantom divergence.
func Open(dir string) (*Store, error) {
	s := New()
	s.dir = dir
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(s.indexPath())
	if errors.Is(err, fs.ErrNotExist) {
		return s, nil
	}
	if err != nil {
		return nil, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var rec struct{ Key, Digest string }
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return nil, fmt.Errorf("castore: corrupt index record %q: %v", line, err)
		}
		content, err := os.ReadFile(s.objectPath(rec.Digest))
		if err != nil {
			return nil, fmt.Errorf("castore: indexed object %s unreadable: %v", rec.Digest, err)
		}
		if d := DigestOf(content); d != rec.Digest {
			return nil, fmt.Errorf("castore: object %s corrupt on disk (content hashes to %s)", rec.Digest, d)
		}
		// Later records win within a file only if they agree; the Put
		// path never appends a conflicting record, so disagreement here
		// means the file was edited by hand.
		if have, ok := s.index[rec.Key]; ok && have != rec.Digest {
			return nil, &DivergenceError{Key: rec.Key, Have: have, Got: rec.Digest}
		}
		s.objects[rec.Digest] = content
		s.index[rec.Key] = rec.Digest
	}
	return s, nil
}

// DigestOf returns the hex SHA-256 of content — the object address.
func DigestOf(content []byte) string {
	sum := sha256.Sum256(content)
	return hex.EncodeToString(sum[:])
}

func (s *Store) indexPath() string { return filepath.Join(s.dir, "index.jsonl") }

func (s *Store) objectPath(digest string) string {
	return filepath.Join(s.dir, "objects", digest[:2], digest)
}

// Put binds key to content, storing the object by digest. Rebinding a
// key to identical content is an idempotent no-op; rebinding it to
// different content returns *DivergenceError and leaves the original
// binding intact. The returned digest addresses the stored object.
func (s *Store) Put(key string, content []byte) (string, error) {
	digest := DigestOf(content)
	s.mu.Lock()
	defer s.mu.Unlock()
	if have, ok := s.index[key]; ok {
		if have != digest {
			return "", &DivergenceError{Key: key, Have: have, Got: digest}
		}
		return digest, nil
	}
	if s.dir != "" {
		if err := s.persist(key, digest, content); err != nil {
			return "", err
		}
	}
	if _, ok := s.objects[digest]; !ok {
		s.objects[digest] = append([]byte(nil), content...)
	}
	s.index[key] = digest
	return digest, nil
}

// persist writes the object (atomically, via the checkpoint package's
// tmp+rename) and appends the index record. Called with s.mu held.
func (s *Store) persist(key, digest string, content []byte) error {
	if _, ok := s.objects[digest]; !ok {
		path := s.objectPath(digest)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		if err := checkpoint.WriteFileAtomic(path, content); err != nil {
			return err
		}
	}
	rec, err := json.Marshal(struct{ Key, Digest string }{key, digest})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(s.indexPath(), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(rec, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Get returns the content and digest bound to key.
func (s *Store) Get(key string) (content []byte, digest string, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	digest, ok := s.index[key]
	if !ok {
		return nil, "", fmt.Errorf("%w: key %q", ErrNotFound, key)
	}
	return append([]byte(nil), s.objects[digest]...), digest, nil
}

// Len returns the number of key bindings.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}
