package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"localalias/internal/lru"
	"localalias/internal/obs"
)

// CacheKey derives the content-hash cache key of a request: the
// SHA-256 (hex) over the API version, module name, analysis options,
// and full source text, with NUL separators so no two field layouts
// collide. Identical submissions — same name, same bytes, same
// options — therefore share one key across time, and any change to
// any input yields a fresh one.
//
// The options are keyed by their canonical JSON encoding (with the
// mode defaulted), not by hand-packed flag bits: every exported
// wire field of AnalyzeOptions — including any added later — is
// covered automatically, so a new option can never silently alias
// cache entries across option values. Execution knobs that do not
// affect response bytes (the memo and the other `json:"-"` request
// fields) stay outside the key by the same rule; the reflect
// guard test in cache_test.go pins both halves of this contract.
//
// Requests carrying a Generate closure have no content to hash until
// the guard runs; callers must not cache them (the Server never sees
// such requests, since Generate is not serializable).
func CacheKey(req *AnalyzeRequest) string {
	opts := req.Options
	if opts.Mode == "" {
		opts.Mode = ModeQual
	}
	enc, err := json.Marshal(opts)
	if err != nil {
		// AnalyzeOptions is a flat struct of marshalable fields; this
		// can only fire if someone adds an unmarshalable field, which
		// the guard test rejects first.
		panic(fmt.Sprintf("service: AnalyzeOptions not canonically encodable: %v", err))
	}
	version := req.APIVersion
	if version == "" {
		version = APIVersion
	}
	h := sha256.New()
	for _, part := range []string{"lna/" + version, req.Module, string(enc), req.Source} {
		h.Write([]byte(part))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// CacheStats is a snapshot of the cache's accounting.
type CacheStats = lru.Stats

// Cache is a bounded LRU mapping cache keys to canonical response
// bytes. It is safe for concurrent use. The values are the exact
// bytes the cold run produced, so a hit replays them byte-identically.
type Cache struct {
	lru *lru.Cache[string, []byte]
}

// NewCache builds a cache holding at most capacity entries (minimum 1).
func NewCache(capacity int) *Cache {
	a := obs.App()
	return &Cache{lru: lru.New[string, []byte](capacity, lru.Counters{
		Hits: a.CacheHits, Misses: a.CacheMisses, Evictions: a.CacheEvictions,
	})}
}

// Get returns the cached bytes for key, marking the entry most
// recently used. The second result reports whether it was present.
// The returned slice is the caller's to keep: it is a copy, so
// mutating it cannot corrupt the canonical bytes later hits replay.
func (c *Cache) Get(key string) ([]byte, bool) {
	val, ok := c.lru.Get(key)
	if !ok {
		return nil, false
	}
	out := make([]byte, len(val))
	copy(out, val)
	return out, true
}

// Put stores val under key, evicting the least recently used entry if
// the cache is full. Re-putting an existing key refreshes its value
// and recency. The stored bytes are a copy, for the same isolation
// reason Get copies on the way out.
func (c *Cache) Put(key string, val []byte) {
	stored := make([]byte, len(val))
	copy(stored, val)
	c.lru.Put(key, stored)
}

// Stats returns a snapshot of the accounting counters.
func (c *Cache) Stats() CacheStats { return c.lru.Stats() }
