// Package cache provides the content-addressed store behind the campaign
// layer's cell cache (DESIGN.md §3b).
//
// The campaign runner keys each grid cell's results by a stable hash of
// everything that determines them — adversary, n, k, goal, round budget,
// trial count, seed, and the engine version — so re-running a spec whose
// grid overlaps an earlier run recomputes only the genuinely new cells.
// This package knows nothing about campaigns: it stores opaque bytes
// under hex-digest keys. Two backends are provided: Memory (for tests and
// single-process reuse) and Dir (a filesystem store that survives across
// processes and is safe for concurrent writers via atomic rename).
//
// Both backends are safe for concurrent use. A cache is strictly an
// optimization: the determinism contract of the campaign layer guarantees
// a hit and a recomputation produce identical bytes, so losing or wiping
// a cache never changes an artifact.
package cache

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Cache stores opaque entries under content-derived keys. Get reports a
// miss with ok == false and reserves errors for backend failures; Put
// overwrites silently (entries are content-addressed, so overwriting can
// only rewrite identical data) and must not retain data once it returns:
// callers reuse the buffer.
type Cache interface {
	Get(key string) (data []byte, ok bool, err error)
	Put(key string, data []byte) error
}

// Deleter is the optional eviction side of a Cache. The campaign layer
// uses it to heal corruption — a cell entry that fails to decode is
// deleted so the backend stops serving the bad bytes — and the results
// warehouse (internal/store) uses it for retention GC. Deleting a
// missing key is not an error: a delete is a statement that the entry
// must not exist, not that it did.
type Deleter interface {
	Delete(key string) error
}

// Memory is an in-process Cache backed by a map.
type Memory struct {
	mu sync.Mutex
	m  map[string][]byte
}

// NewMemory returns an empty in-memory cache.
func NewMemory() *Memory {
	return &Memory{m: make(map[string][]byte)}
}

// Get returns the entry stored under key, if any.
func (c *Memory) Get(key string) ([]byte, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	data, ok := c.m[key]
	if !ok {
		return nil, false, nil
	}
	out := make([]byte, len(data))
	copy(out, data)
	return out, true, nil
}

// Put stores data under key.
func (c *Memory) Put(key string, data []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	stored := make([]byte, len(data))
	copy(stored, data)
	c.m[key] = stored
	return nil
}

// Delete removes the entry stored under key, if any.
func (c *Memory) Delete(key string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.m, key)
	return nil
}

// Len reports the number of stored entries.
func (c *Memory) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Dir is a filesystem Cache: entry key k lives at <root>/<k[:2]>/<k>.
// Writes go through a temp file plus rename, so concurrent writers and
// readers (including other processes sharing the directory) never observe
// a torn entry.
type Dir struct {
	root string
}

// NewDir returns a filesystem cache rooted at root, creating it if
// needed.
func NewDir(root string) (*Dir, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("cache: creating %s: %w", root, err)
	}
	return &Dir{root: root}, nil
}

// Root returns the cache directory.
func (c *Dir) Root() string { return c.root }

func (c *Dir) path(key string) (string, error) {
	if err := checkKey(key); err != nil {
		return "", err
	}
	return filepath.Join(c.root, key[:2], key), nil
}

// checkKey accepts only lowercase-hex digests of reasonable length: the
// keys the campaign layer derives. Anything else (and in particular
// anything that could traverse paths) is rejected.
func checkKey(key string) error {
	if len(key) < 16 || len(key) > 128 {
		return fmt.Errorf("cache: key %q is not a digest", key)
	}
	for _, r := range key {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return fmt.Errorf("cache: key %q is not lowercase hex", key)
		}
	}
	return nil
}

// Get returns the entry stored under key, if any.
func (c *Dir) Get(key string) ([]byte, bool, error) {
	p, err := c.path(key)
	if err != nil {
		return nil, false, err
	}
	data, err := os.ReadFile(p)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("cache: reading %s: %w", key, err)
	}
	return data, true, nil
}

// Delete removes the entry stored under key. A missing entry is not an
// error, so concurrent deleters (a GC sweep racing a corruption heal)
// both succeed.
func (c *Dir) Delete(key string) error {
	p, err := c.path(key)
	if err != nil {
		return err
	}
	if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("cache: deleting %s: %w", key, err)
	}
	return nil
}

// Touch marks the entry as recently used by bumping its mtime — the LRU
// signal the results warehouse's retention GC (internal/store) sorts
// evictions by. A missing entry is ignored: a concurrent eviction
// between Get and Touch is indistinguishable from a miss.
func (c *Dir) Touch(key string) error {
	p, err := c.path(key)
	if err != nil {
		return err
	}
	now := time.Now()
	if err := os.Chtimes(p, now, now); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("cache: touching %s: %w", key, err)
	}
	return nil
}

// Put stores data under key atomically.
func (c *Dir) Put(key string, data []byte) error {
	p, err := c.path(key)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fmt.Errorf("cache: creating shard dir: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(p), "."+key+".tmp*")
	if err != nil {
		return fmt.Errorf("cache: temp file: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: writing %s: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: closing %s: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cache: publishing %s: %w", key, err)
	}
	return nil
}
