package fleet

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/carbonsched/gaia/internal/metrics"
	"github.com/carbonsched/gaia/internal/simtime"
	"github.com/carbonsched/gaia/internal/workload"
)

// testBlob builds a small valid wire blob — an encoded accumulator with
// recognizable contents.
func testBlob(t testing.TB, jobs int) []byte {
	t.Helper()
	a := metrics.NewAccumulator(jobs, 2*simtime.Hour)
	for i := 0; i < jobs; i++ {
		a.AddJob(&metrics.JobResult{
			JobID: i, Waiting: simtime.Duration(i), Length: simtime.Hour,
			Carbon: float64(i) * 1.5, BaselineCarbon: float64(i) * 2,
			UsageCost: 0.25, Queue: workload.QueueShort,
		})
	}
	return metrics.EncodeAccumulator(a)
}

func TestBlobStoreRoundtrip(t *testing.T) {
	s := NewBlobStore(0)
	s.Logf = t.Logf
	fp := key(1)
	if got := s.Get(fp); got != nil {
		t.Fatalf("empty store returned %d bytes", len(got))
	}
	blob := testBlob(t, 3)
	s.Put(fp, blob)
	if got := s.Get(fp); !bytes.Equal(got, blob) {
		t.Fatalf("roundtrip mismatch: got %d bytes, want %d", len(got), len(blob))
	}
	st := s.Stats()
	if st.Entries != 1 || st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBlobStoreEviction(t *testing.T) {
	blob := testBlob(t, 2)
	// Budget for two entries; the third insert evicts the oldest.
	s := NewBlobStore(int64(2 * len(blob)))
	s.Logf = t.Logf
	s.Put(key(1), blob)
	s.Put(key(2), blob)
	s.Put(key(3), blob)
	if got := s.Get(key(1)); got != nil {
		t.Fatal("oldest entry survived past the byte budget")
	}
	for _, i := range []int{2, 3} {
		if got := s.Get(key(i)); got == nil {
			t.Fatalf("entry %d evicted although within budget", i)
		}
	}
	if st := s.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}

func TestBlobStoreDiskSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	blob := testBlob(t, 4)
	s := NewBlobStore(0)
	s.Logf = t.Logf
	if err := s.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	s.Put(key(7), blob)

	restarted := NewBlobStore(0)
	restarted.Logf = t.Logf
	if err := restarted.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	if got := restarted.Get(key(7)); !bytes.Equal(got, blob) {
		t.Fatalf("disk reload mismatch: got %d bytes, want %d", len(got), len(blob))
	}
}

// TestBlobStorePutWritesThroughOnInsert pins that only the Put that
// inserts an entry writes it to disk: entries are content-addressed and
// immutable, so a repeated Put of a resident entry has nothing to add.
func TestBlobStorePutWritesThroughOnInsert(t *testing.T) {
	dir := t.TempDir()
	blob := testBlob(t, 4)
	s := NewBlobStore(0)
	s.Logf = t.Logf
	if err := s.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	s.Put(key(5), blob)
	path := s.dir.Path(key(5), blobSuffix)
	if err := os.Remove(path); err != nil {
		t.Fatalf("insert did not write through: %v", err)
	}
	s.Put(key(5), blob)
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("repeated Put rewrote the entry (stat err %v)", err)
	}
}

func TestBlobStoreDiskCorruptionIsAMiss(t *testing.T) {
	dir := t.TempDir()
	blob := testBlob(t, 4)
	s := NewBlobStore(0)
	var logged bool
	s.Logf = func(string, ...any) { logged = true }
	if err := s.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := s.dir.Write(key(9), blobSuffix, append(append([]byte(nil), blob...), 0xFF)); err != nil { // trailing garbage
		t.Fatal(err)
	}
	if got := s.loadDisk(s.dir, key(9)); got != nil {
		t.Fatal("corrupt disk entry served")
	}
	if !logged {
		t.Fatal("corruption was not logged")
	}
}

func TestCacheServerProtocol(t *testing.T) {
	store := NewBlobStore(0)
	store.Logf = t.Logf
	ts := httptest.NewServer(NewCacheServer(store).Handler())
	defer ts.Close()
	blob := testBlob(t, 5)
	fpHex := strings.Repeat("ab", 32)

	do := func(method, path string, body []byte) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	if resp := do("GET", "/v1/cache/"+fpHex, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET miss = %d, want 404", resp.StatusCode)
	}
	if resp := do("PUT", "/v1/cache/"+fpHex, blob); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT valid = %d, want 204", resp.StatusCode)
	}
	resp := do("GET", "/v1/cache/"+fpHex, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET hit = %d, want 200", resp.StatusCode)
	}
	var got bytes.Buffer
	if _, err := got.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), blob) {
		t.Fatalf("GET body mismatch: %d bytes, want %d", got.Len(), len(blob))
	}

	if resp := do("PUT", "/v1/cache/"+fpHex, []byte("not an accumulator")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("PUT invalid blob = %d, want 400", resp.StatusCode)
	}
	if resp := do("PUT", "/v1/cache/zz", blob); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("PUT bad fingerprint = %d, want 400", resp.StatusCode)
	}
	if resp := do("GET", "/v1/cache/stats", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET stats = %d, want 200", resp.StatusCode)
	}
}

// TestClientRouting drives two members — one live HTTP peer and one
// "self" served from the local shard — and checks that every key reaches
// exactly its ring owner.
func TestClientRouting(t *testing.T) {
	peerStore := NewBlobStore(0)
	peerStore.Logf = t.Logf
	peer := httptest.NewServer(NewCacheServer(peerStore).Handler())
	defer peer.Close()

	selfStore := NewBlobStore(0)
	selfStore.Logf = t.Logf
	self := "http://self.invalid:0" // never dialed: self traffic short-circuits
	ring := NewRing([]string{self, peer.URL}, 0)
	c := NewClient(ring, self, selfStore)

	blob := testBlob(t, 2)
	ctx := context.Background()
	var selfKeys, peerKeys int
	for i := 0; i < 64; i++ {
		fp := key(i)
		if err := c.Put(ctx, fp, blob); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		got, err := c.Get(ctx, fp)
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if !bytes.Equal(got, blob) {
			t.Fatalf("get %d: %d bytes, want %d", i, len(got), len(blob))
		}
		if c.Owner(fp) == self {
			selfKeys++
			if selfStore.Get(fp) == nil {
				t.Fatalf("key %d owned by self missing from local shard", i)
			}
		} else {
			peerKeys++
			if peerStore.Get(fp) == nil {
				t.Fatalf("key %d owned by peer missing from peer shard", i)
			}
		}
	}
	if selfKeys == 0 || peerKeys == 0 {
		t.Fatalf("degenerate split: self=%d peer=%d", selfKeys, peerKeys)
	}
}

// TestClientDeadPeer pins degradation: a dead owner yields errors, not
// hangs — and a clean miss is (nil, nil), distinguishable from failure.
func TestClientDeadPeer(t *testing.T) {
	dead := "http://127.0.0.1:1" // reserved port, nothing listens
	c := NewClient(NewRing([]string{dead}, 0), "", nil)
	c.SetTimeout(200 * time.Millisecond)
	ctx := context.Background()
	start := time.Now()
	if _, err := c.Get(ctx, key(1)); err == nil {
		t.Fatal("get from dead peer succeeded")
	}
	if err := c.Put(ctx, key(1), testBlob(t, 1)); err == nil {
		t.Fatal("put to dead peer succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("dead-peer operations took %v; timeout not applied", elapsed)
	}
}

// FuzzCacheWire feeds arbitrary fingerprints and bodies through the cache
// protocol: the server must answer every request with a sane status and
// never panic, and only blobs that strictly decode may be stored.
func FuzzCacheWire(f *testing.F) {
	valid := testBlob(f, 2)
	f.Add(strings.Repeat("ab", 32), valid)
	f.Add(strings.Repeat("ab", 32), valid[:len(valid)-3])    // truncated
	f.Add(strings.Repeat("ab", 32), append([]byte{}, 0x00))  // garbage
	f.Add("zz", valid)                                       // bad hex
	f.Add("abc", valid)                                      // bad length
	f.Add(strings.Repeat("AB", 32), []byte{})                // upper hex, empty body
	f.Add(strings.Repeat("ab", 32), append(valid, valid...)) // trailing garbage
	f.Fuzz(func(t *testing.T, fp string, body []byte) {
		store := NewBlobStore(0)
		store.Logf = func(string, ...any) {}
		h := NewCacheServer(store).Handler()

		put := httptest.NewRequest(http.MethodPut, "/v1/cache/"+sanitizePath(fp), bytes.NewReader(body))
		pw := httptest.NewRecorder()
		h.ServeHTTP(pw, put)
		switch pw.Code {
		case http.StatusNoContent:
			// Stored — must therefore decode strictly.
			if _, err := metrics.DecodeAccumulator(body); err != nil {
				t.Fatalf("stored a blob that does not decode: %v", err)
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusNotFound, http.StatusMovedPermanently:
			// Rejected (404/301 when the path escapes the route).
		default:
			t.Fatalf("PUT answered unexpected status %d", pw.Code)
		}

		get := httptest.NewRequest(http.MethodGet, "/v1/cache/"+sanitizePath(fp), nil)
		gw := httptest.NewRecorder()
		h.ServeHTTP(gw, get)
		if gw.Code == http.StatusOK {
			if _, err := metrics.DecodeAccumulator(gw.Body.Bytes()); err != nil {
				t.Fatalf("served a blob that does not decode: %v", err)
			}
		}
	})
}

// sanitizePath keeps fuzzed fingerprints usable as a URL path element —
// the client always sends lower hex; the fuzz explores near that space
// without tripping net/http's request-line validation.
func sanitizePath(s string) string {
	var b strings.Builder
	for _, r := range s {
		if r > ' ' && r < 0x7f && r != '/' && r != '?' && r != '#' && r != '%' {
			b.WriteRune(r)
		} else {
			b.WriteByte('x')
		}
	}
	if b.Len() == 0 {
		return "x"
	}
	return b.String()
}
