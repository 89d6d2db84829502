// Package server is the xquecd serving subsystem: a long-lived query
// service over compressed XQueC repositories. It keeps hot repositories
// resident in an LRU pool, amortizes query compilation through a plan
// cache, bounds concurrent evaluation with a semaphore, and exports
// metrics in Prometheus text format — the deployment shape the paper's
// "query the compressed repository directly" design calls for.
package server

import (
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"xquec"
	"xquec/internal/partition"
)

// Pool is an LRU cache of open repositories keyed by repository name.
// Repositories load lazily on first use; when the pool exceeds its
// capacity the least-recently-used handle is dropped (the Database is
// immutable, so eviction is just unreferencing — in-flight queries on
// the evicted handle finish unharmed and the memory goes with the last
// reference).
type Pool struct {
	dir string
	cap int
	// open is the loader, swappable in tests.
	open func(path string) (*xquec.Database, error)

	mu        sync.Mutex
	entries   map[string]*poolEntry
	lru       *list.List // front = most recent; values are *poolEntry
	misses    int64      // loads started, failed ones included
	evictions int64

	// hits counts handles served from residence. It advances after the
	// wait on an in-flight load, outside the lock, so a request that
	// joins a load which then fails is no hit.
	hits atomic.Int64
}

type poolEntry struct {
	name string
	elem *list.Element
	// ready gates the load: the first getter loads outside the pool
	// lock while later getters for the same repository wait on it
	// instead of loading again.
	ready chan struct{}
	db    *xquec.Database
	err   error
}

// NewPool returns a pool over dir with the given capacity (minimum 1).
func NewPool(dir string, capacity int) *Pool {
	if capacity < 1 {
		capacity = 1
	}
	return &Pool{
		dir:     dir,
		cap:     capacity,
		open:    xquec.Open,
		entries: map[string]*poolEntry{},
		lru:     list.New(),
	}
}

// repoPath maps a repository name to its file, rejecting names that
// escape the directory: partition.Resolve of name.xqc — the
// appended-to manifest name.xqcg when that exists, else name.xqc, else
// name.xqcs, the manifest of a database compressed with Options.Shards:
// one namespace serves all.
func (p *Pool) repoPath(name string) (string, error) {
	if name == "" || strings.ContainsAny(name, "/\\") || strings.Contains(name, "..") {
		return "", fmt.Errorf("server: invalid repository name %q", name)
	}
	return partition.Resolve(filepath.Join(p.dir, name+".xqc")), nil
}

// Get returns the open repository for name, loading it if necessary.
// cached reports whether the handle was already resident.
func (p *Pool) Get(name string) (db *xquec.Database, cached bool, err error) {
	path, err := p.repoPath(name)
	if err != nil {
		return nil, false, err
	}
	p.mu.Lock()
	if e, ok := p.entries[name]; ok {
		p.lru.MoveToFront(e.elem)
		p.mu.Unlock()
		<-e.ready
		if e.err != nil {
			return nil, false, e.err
		}
		p.hits.Add(1)
		return e.db, true, nil
	}
	p.misses++
	e := &poolEntry{name: name, ready: make(chan struct{})}
	e.elem = p.lru.PushFront(e)
	p.entries[name] = e
	for p.lru.Len() > p.cap {
		tail := p.lru.Back()
		victim := tail.Value.(*poolEntry)
		p.lru.Remove(tail)
		delete(p.entries, victim.name)
		p.evictions++
	}
	p.mu.Unlock()

	e.db, e.err = p.open(path)
	close(e.ready)
	if e.err != nil {
		// Do not cache failures: a later Get retries the load (the file
		// may have appeared or been repaired in the meantime).
		p.mu.Lock()
		if cur, ok := p.entries[name]; ok && cur == e {
			p.lru.Remove(e.elem)
			delete(p.entries, name)
		}
		p.mu.Unlock()
		return nil, false, e.err
	}
	return e.db, false, nil
}

// Swap atomically replaces (or installs) the resident handle for name
// with db — the publication point of the repository write path: a
// Writer commits or compacts, the new Database lands here, and every
// later Get serves it. In-flight queries on the previous handle finish
// on their own snapshot. Loads already underway for name are left to
// complete; their entry is replaced, so they serve at most one query
// generation late.
func (p *Pool) Swap(name string, db *xquec.Database) {
	e := &poolEntry{name: name, ready: make(chan struct{}), db: db}
	close(e.ready)
	p.mu.Lock()
	if old, ok := p.entries[name]; ok {
		p.lru.Remove(old.elem)
	}
	e.elem = p.lru.PushFront(e)
	p.entries[name] = e
	for p.lru.Len() > p.cap {
		tail := p.lru.Back()
		victim := tail.Value.(*poolEntry)
		p.lru.Remove(tail)
		delete(p.entries, victim.name)
		p.evictions++
	}
	p.mu.Unlock()
}

// Resident returns the names currently held by the pool, most recently
// used first.
func (p *Pool) Resident() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, p.lru.Len())
	for el := p.lru.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*poolEntry).name)
	}
	return out
}

// ResidentBytes snapshots the in-memory size of every repository whose
// load has completed, by name. Loads still in flight are skipped so a
// metrics scrape never blocks on repository I/O; footprints are
// computed outside the pool lock.
func (p *Pool) ResidentBytes() map[string]int64 {
	p.mu.Lock()
	ready := make([]*poolEntry, 0, p.lru.Len())
	for el := p.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*poolEntry)
		select {
		case <-e.ready:
			if e.err == nil && e.db != nil {
				ready = append(ready, e)
			}
		default:
		}
	}
	p.mu.Unlock()
	out := make(map[string]int64, len(ready))
	for _, e := range ready {
		out[e.name] = int64(e.db.ResidentBytes())
	}
	return out
}

// Available lists the repository names present in the pool's directory
// — .xqc repositories and .xqcg and .xqcs segment-set manifests (the
// per-segment *.seg-NNNNNN.xqc files belong to their manifest and are
// not listed separately), sorted and deduplicated.
func (p *Pool) Available() ([]string, error) {
	des, err := os.ReadDir(p.dir)
	if err != nil {
		return nil, fmt.Errorf("server: list repositories: %w", err)
	}
	seen := map[string]bool{}
	var names []string
	add := func(name string) {
		if !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
	for _, de := range des {
		if de.IsDir() {
			continue
		}
		switch {
		case strings.HasSuffix(de.Name(), ".xqcs"):
			add(strings.TrimSuffix(de.Name(), ".xqcs"))
		case strings.HasSuffix(de.Name(), ".xqcg"):
			add(strings.TrimSuffix(de.Name(), ".xqcg"))
		case strings.HasSuffix(de.Name(), ".xqc"):
			base := strings.TrimSuffix(de.Name(), ".xqc")
			if strings.Contains(base, ".seg-") {
				continue // a manifest's segment file, addressed via the manifest
			}
			add(base)
		}
	}
	sort.Strings(names)
	return names, nil
}

// PoolStats is a snapshot of the pool's counters.
type PoolStats struct {
	Hits, Misses, Evictions int64
}

// Stats snapshots the pool's counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{Hits: p.hits.Load(), Misses: p.misses, Evictions: p.evictions}
}
