package fleet

import (
	"fmt"
	"log"
	"sync"

	"github.com/carbonsched/gaia/internal/blobdir"
	"github.com/carbonsched/gaia/internal/metrics"
)

// DefaultMaxBytes bounds a shard's in-memory footprint: 256 MB of encoded
// accumulators (a 1000-job cell encodes to ~50 KB, so roughly 5000 warm
// cells per member).
const DefaultMaxBytes = 256 << 20

// BlobStore is one member's shard of the shared cache tier: encoded
// accumulators keyed by cell fingerprint, held in memory with FIFO
// eviction under a byte budget, optionally written through to a disk
// directory so a restarted member comes back warm. All methods are safe
// for concurrent use.
//
// The store treats blobs as opaque at this layer — CacheServer validates
// them against the metrics codec on the way in, and every reader decodes
// (and checksums) on the way out, so a corrupt entry costs a recompute,
// never a wrong answer.
type BlobStore struct {
	// Logf receives diagnostics about disk problems; defaults to
	// log.Printf. Never called on the happy path.
	Logf func(format string, args ...any)

	mu       sync.Mutex
	m        map[[32]byte][]byte
	order    [][32]byte // insertion order, for FIFO eviction
	curBytes int64
	maxBytes int64
	dir      *blobdir.Dir // nil = memory only

	hits, misses, puts, evictions int64
}

// NewBlobStore returns an empty in-memory shard bounded to maxBytes
// (DefaultMaxBytes when <= 0).
func NewBlobStore(maxBytes int64) *BlobStore {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	return &BlobStore{
		Logf:     log.Printf,
		m:        make(map[[32]byte][]byte),
		maxBytes: maxBytes,
	}
}

// SetDir attaches a write-through disk directory, creating it if needed.
// Entries evicted from memory remain readable from disk.
func (s *BlobStore) SetDir(dir string) error {
	d, err := blobdir.Open(dir)
	if err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	s.mu.Lock()
	s.dir = d
	s.mu.Unlock()
	return nil
}

// Get returns the stored blob for fp, or nil when absent. The returned
// slice must not be modified.
func (s *BlobStore) Get(fp [32]byte) []byte {
	s.mu.Lock()
	b, ok := s.m[fp]
	if ok {
		s.hits++
	}
	dir := s.dir
	s.mu.Unlock()
	if ok {
		return b
	}
	b = s.loadDisk(dir, fp)
	s.mu.Lock()
	if b != nil {
		s.hits++
	} else {
		s.misses++
	}
	s.mu.Unlock()
	return b
}

// Put stores blob under fp, evicting the oldest entries if the byte
// budget is exceeded, and writes a newly inserted entry through to disk.
// The caller must not modify blob afterwards.
func (s *BlobStore) Put(fp [32]byte, blob []byte) {
	s.mu.Lock()
	_, exists := s.m[fp]
	if !exists {
		s.m[fp] = blob
		s.order = append(s.order, fp)
		s.curBytes += int64(len(blob))
		s.puts++
		for s.curBytes > s.maxBytes && len(s.order) > 1 {
			old := s.order[0]
			s.order = s.order[1:]
			if b, ok := s.m[old]; ok {
				s.curBytes -= int64(len(b))
				delete(s.m, old)
				s.evictions++
			}
		}
	}
	dir := s.dir
	s.mu.Unlock()
	if !exists {
		if err := dir.Write(fp, blobSuffix, blob); err != nil {
			s.Logf("fleet: writing %s: %v", dir.Path(fp, blobSuffix), err)
		}
	}
}

// Stats reports the shard's cumulative counters and current occupancy.
func (s *BlobStore) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{
		Entries:   len(s.m),
		Bytes:     s.curBytes,
		Hits:      s.hits,
		Misses:    s.misses,
		Puts:      s.puts,
		Evictions: s.evictions,
	}
}

// StoreStats is one shard's occupancy and cumulative traffic counters.
type StoreStats struct {
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Puts      int64 `json:"puts"`
	Evictions int64 `json:"evictions"`
}

// blobSuffix names disk entries. The metrics codec version is spelled
// out in the file name so entries written by an incompatible binary never
// match, mirroring runcache's disk-store convention.
var blobSuffix = fmt.Sprintf(".c%d.gblob", metrics.CodecVersion)

// loadDisk fetches a disk entry, re-validating it against the codec —
// a blob that no longer decodes (torn write, bit rot) is dropped here
// rather than shipped to a peer. Absent files are silent.
func (s *BlobStore) loadDisk(dir *blobdir.Dir, fp [32]byte) []byte {
	data, err := dir.Read(fp, blobSuffix)
	if err == nil && data != nil {
		_, err = metrics.DecodeAccumulator(data)
	}
	if err != nil {
		s.Logf("fleet: %s: %v (treating as miss)", dir.Path(fp, blobSuffix), err)
		return nil
	}
	return data
}
