package campaign

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"dyntreecast/internal/campaign/cache"
)

// TestCacheWarmRunRecomputesNothing: a second run of the same spec against
// the same cache executes zero jobs and still produces a byte-identical
// artifact.
func TestCacheWarmRunRecomputesNothing(t *testing.T) {
	spec := detSpec()
	c := cache.NewMemory()

	cold, err := RunSpec(context.Background(), spec, Config{Workers: 2, Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHits != 0 || cold.Executed != cold.Jobs {
		t.Fatalf("cold run: hits/executed = %d/%d, want 0/%d", cold.CacheHits, cold.Executed, cold.Jobs)
	}

	warm, err := RunSpec(context.Background(), spec, Config{Workers: 2, Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheHits != warm.Jobs || warm.Executed != 0 {
		t.Fatalf("warm run: hits/executed = %d/%d, want %d/0", warm.CacheHits, warm.Executed, warm.Jobs)
	}
	if !bytes.Equal(artifactBytes(t, cold), artifactBytes(t, warm)) {
		t.Error("warm artifact differs from cold artifact")
	}
}

// TestCellEntryRoundTrip pins the cell entry encoding: every round count
// a trial can hold — across the uvarint length boundaries up to 2^32-1 —
// and every cell name, escaping-prone and non-UTF-8 ones included,
// decodes back to the same round counts in one allocation and re-encodes
// to the same bytes; counts below 128 cost one byte per trial; and
// SummarizeCellEntry, the store's reader, gives back the stats Aggregate
// computes from the same trials.
func TestCellEntryRoundTrip(t *testing.T) {
	values := []uint32{0, 1, 7, 127, 128, 300, 16383, 16384, 1 << 31, maxEntryRounds}
	r := rand.New(rand.NewSource(1))
	for len(values) < 200 {
		values = append(values, uint32(r.Int63n(1<<20)))
	}
	for _, cell := range []string{"random-tree/n=8", `a<b>&"c"\`, "ü\u2028\x01", string([]byte{0xff, 'x'}), ""} {
		entry := appendCellEntry([]byte("stale"), cell, values)[len("stale"):]
		rounds, err := DecodeCellEntry(entry, cell, len(values))
		if err != nil {
			t.Fatalf("cell %q: decoding its own entry: %v", cell, err)
		}
		if !slices.Equal(rounds, values) {
			t.Fatalf("cell %q: decoded %v, encoded %v", cell, rounds, values)
		}
		if again := appendCellEntry(nil, cell, rounds); !bytes.Equal(again, entry) {
			t.Errorf("cell %q: re-encoding differs", cell)
		}
		if allocs := testing.AllocsPerRun(10, func() { DecodeCellEntry(entry, cell, len(values)) }); allocs != 1 {
			t.Errorf("cell %q: decode allocates %v times, want one backing slice", cell, allocs)
		}
	}
	small := appendCellEntry(nil, "c", []uint32{3, 127, 0})
	if want := []byte{CellEntryFormat, 1, 'c', 3, 3, 127, 0}; !bytes.Equal(small, want) {
		t.Errorf("entry = %v, want %v", small, want)
	}

	entry := appendCellEntry(nil, "c", []uint32{3, 5})
	results := []JobResult{
		{Index: 0, Measurements: []Measurement{{Cell: "c", Value: 3}}},
		{Index: 1, Measurements: []Measurement{{Cell: "c", Value: 5}}},
	}
	want, _ := CellByKey(Aggregate(results), "c")
	if got, err := SummarizeCellEntry(entry, "c", 2); err != nil || got != want {
		t.Errorf("SummarizeCellEntry = %+v, %v; want %+v", got, err, want)
	}
	if _, err := SummarizeCellEntry(entry, "c", 3); err == nil {
		t.Error("SummarizeCellEntry accepted an entry with 2 trials as 3")
	}
}

// TestCellEntryRejects is the decoder's rejection table: nothing torn,
// foreign, mis-sized or beyond a uint32 round count gets through, and a
// header claiming more trials than its bytes can hold is refused before
// anything is allocated.
func TestCellEntryRejects(t *testing.T) {
	entry := appendCellEntry(nil, "c", []uint32{3, 200, 0})
	header := func(cell string, trials uint64) []byte {
		b := append([]byte{CellEntryFormat}, byte(len(cell)))
		return binary.AppendUvarint(append(b, cell...), trials)
	}
	legacy, _ := json.Marshal(map[string]any{"cell": "c", "trials": [][]Measurement{{{Cell: "c", Value: 3}}}})
	decodes := []struct {
		name   string
		data   []byte
		trials int
	}{
		{"empty", nil, 0},
		{"json entry", legacy, 1},
		{"unknown format", append([]byte{CellEntryFormat + 1}, entry[1:]...), 3},
		{"trailing byte", append(bytes.Clone(entry), 0), 3},
		{"foreign cell", append(header("d", 3), 3, 0, 0), 3},
		{"count mismatch", entry, 2},
		{"negative count", entry, -1},
		{"count beyond bytes", append(header("c", 1<<40), 1, 2), 1 << 40},
		{"count overflows", []byte{CellEntryFormat, 1, 'c', 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, 0},
		{"name beyond bytes", []byte{CellEntryFormat, 9, 'c'}, 0},
		{"non-minimal varint", append(header("c", 1), 0x83, 0x00), 1},
		{"round count beyond 2^32-1", binary.AppendUvarint(header("c", 1), maxEntryRounds+1), 1},
		{"round count 2^53", binary.AppendUvarint(header("c", 1), 1<<53), 1},
	}
	for i := range entry {
		decodes = append(decodes, struct {
			name   string
			data   []byte
			trials int
		}{fmt.Sprintf("torn at %d", i), entry[:i], 3})
	}
	for _, tc := range decodes {
		if rounds, err := DecodeCellEntry(tc.data, "c", tc.trials); err == nil {
			t.Errorf("%s: decoded %v", tc.name, rounds)
		}
	}
	huge := append(header("c", 1<<40), 1)
	if n := allocatedBytes(func() { DecodeCellEntry(huge, "c", 1<<40) }); n > 1<<16 {
		t.Errorf("an oversized count allocates %d bytes before it is refused", n)
	}
}

// allocatedBytes reports the bytes the heap grew by (cumulatively, so
// collected garbage counts) while f ran.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCacheLegacyJSONEntryHeals: an entry in the JSON format of older
// builds, under a cell's live content address, is a miss — deleted on
// detection, the cell recomputed and stored in the current format — and
// the artifact is byte-identical to a cold run's. Cache keys did not
// change with the format, so this is the path every pre-existing entry
// takes.
func TestCacheLegacyJSONEntryHeals(t *testing.T) {
	spec := Spec{Scenarios: named("random-path"), Ns: []int{8}, Trials: 3, Seed: 4}
	dir, err := cache.NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	clean, err := RunSpec(context.Background(), spec, Config{Cache: dir})
	if err != nil {
		t.Fatal(err)
	}
	key := cellKeyFor(t, spec, "random-path", 8, -1)
	const cell = "random-path/n=8"
	current, ok, err := dir.Get(key)
	if err != nil || !ok {
		t.Fatalf("cell entry missing after run: ok=%v err=%v", ok, err)
	}
	rounds, err := DecodeCellEntry(current, cell, spec.Trials)
	if err != nil {
		t.Fatal(err)
	}
	// The entry an older build stored for the same cell.
	legacy := struct {
		Cell   string          `json:"cell"`
		Trials [][]Measurement `json:"trials"`
	}{Cell: cell}
	for _, r := range rounds {
		legacy.Trials = append(legacy.Trials, []Measurement{{Cell: cell, Value: float64(r)}})
	}
	old, err := json.Marshal(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if err := dir.Put(key, old); err != nil {
		t.Fatal(err)
	}

	rec := &recordingCache{Cache: dir, dir: dir}
	again, err := RunSpec(context.Background(), spec, Config{Cache: rec})
	if err != nil {
		t.Fatal(err)
	}
	if rec.deleted != 1 || again.CacheHits != 0 || again.Executed != again.Jobs {
		t.Errorf("legacy entry: %d deletes, hits/executed = %d/%d; want 1 delete and a full recomputation",
			rec.deleted, again.CacheHits, again.Executed)
	}
	if !bytes.Equal(artifactBytes(t, clean), artifactBytes(t, again)) {
		t.Error("artifact after healing a legacy entry differs from the cold run")
	}
	if healed, ok, err := dir.Get(key); err != nil || !ok || !bytes.Equal(healed, current) {
		t.Errorf("legacy entry not replaced by the current encoding: ok=%v err=%v", ok, err)
	}
}

// TestCacheOverlappingGridRecomputesOnlyNewCells is the content-addressing
// guarantee: growing a grid recomputes only the genuinely new cells, and
// the enlarged campaign's artifact is byte-identical to a cache-free run.
func TestCacheOverlappingGridRecomputesOnlyNewCells(t *testing.T) {
	small := Spec{
		Scenarios: named("random-tree", "random-path"),
		Ns:        []int{8, 16},
		Trials:    5,
		Seed:      42,
	}
	big := small
	big.Ns = []int{8, 16, 24}                                             // one new n per adversary
	big.Scenarios = named("random-tree", "random-path", "ascending-path") // one new adversary

	c := cache.NewMemory()
	if _, err := RunSpec(context.Background(), small, Config{Cache: c}); err != nil {
		t.Fatal(err)
	}

	warm, err := RunSpec(context.Background(), big, Config{Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	// Shared cells: 2 adversaries × 2 ns × 5 trials = 20 jobs from cache;
	// new cells: 2 adversaries × 1 n + 1 adversary × 3 ns = 5 cells = 25 jobs.
	if warm.CacheHits != 20 {
		t.Errorf("cache hits = %d, want 20 (the overlapping cells)", warm.CacheHits)
	}
	if warm.Executed != 25 {
		t.Errorf("executed = %d, want 25 (only the new cells)", warm.Executed)
	}

	cacheFree, err := RunSpec(context.Background(), big, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(artifactBytes(t, warm), artifactBytes(t, cacheFree)) {
		t.Error("cache-assisted artifact differs from cache-free artifact")
	}
}

// TestCellStreamsArePositionIndependent pins the property the cache rests
// on: a cell's results depend only on the campaign seed and the cell's own
// coordinates, not on where the cell sits in the grid.
func TestCellStreamsArePositionIndependent(t *testing.T) {
	alone := Spec{Scenarios: named("random-path"), Ns: []int{16}, Trials: 6, Seed: 9}
	crowded := Spec{
		Scenarios: named("random-tree", "random-path"),
		Ns:        []int{8, 16, 32},
		Trials:    6,
		Seed:      9,
	}
	a, err := RunSpec(context.Background(), alone, Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSpec(context.Background(), crowded, Config{})
	if err != nil {
		t.Fatal(err)
	}
	key := "random-path/n=16"
	ca, ok := CellByKey(a.Cells, key)
	if !ok {
		t.Fatal("cell missing from lone run")
	}
	cb, ok := CellByKey(b.Cells, key)
	if !ok {
		t.Fatal("cell missing from crowded run")
	}
	if ca != cb {
		t.Errorf("cell stats depend on grid position:\n%+v\nvs\n%+v", ca, cb)
	}
}

// TestCacheIgnoresCorruptEntries: a torn or foreign cache entry is
// recomputed, not served.
func TestCacheIgnoresCorruptEntries(t *testing.T) {
	spec := Spec{Scenarios: named("random-path"), Ns: []int{8}, Trials: 3, Seed: 4}
	c := cache.NewMemory()
	clean, err := RunSpec(context.Background(), spec, Config{Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	key := cellKeyFor(t, spec, "random-path", 8, -1)
	if err := c.Put(key, []byte("{torn")); err != nil {
		t.Fatal(err)
	}
	again, err := RunSpec(context.Background(), spec, Config{Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	if again.CacheHits != 0 || again.Executed != again.Jobs {
		t.Errorf("corrupt entry served: hits/executed = %d/%d", again.CacheHits, again.Executed)
	}
	if !bytes.Equal(artifactBytes(t, clean), artifactBytes(t, again)) {
		t.Error("recomputed artifact differs")
	}
	// The recomputation must have repaired the entry.
	repaired, err := RunSpec(context.Background(), spec, Config{Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	if repaired.CacheHits != repaired.Jobs {
		t.Errorf("entry not repaired: hits = %d, want %d", repaired.CacheHits, repaired.Jobs)
	}
}

// TestCacheDeletesTruncatedDirEntries is the dir-backend robustness
// regression: a hand-truncated cell file (disk corruption, a partial
// copy) is treated as a miss AND deleted on detection — the campaign
// completes with a byte-identical artifact and the bad file never
// lingers to be served to a non-writing reader.
func TestCacheDeletesTruncatedDirEntries(t *testing.T) {
	spec := Spec{Scenarios: named("random-path"), Ns: []int{8}, Trials: 3, Seed: 4}
	dir, err := cache.NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	clean, err := RunSpec(context.Background(), spec, Config{Cache: dir})
	if err != nil {
		t.Fatal(err)
	}
	key := cellKeyFor(t, spec, "random-path", 8, -1)
	whole, ok, err := dir.Get(key)
	if err != nil || !ok {
		t.Fatalf("cell entry missing after run: ok=%v err=%v", ok, err)
	}
	// Hand-truncate the stored file to half its bytes, as fsck would find
	// it after losing a tail of blocks.
	if err := dir.Put(key, whole[:len(whole)/2]); err != nil {
		t.Fatal(err)
	}

	// Observe the deletion through a decorator that records it, proving
	// the corrupt entry was evicted at detection time (not merely
	// overwritten later by the recomputation's Put).
	rec := &recordingCache{Cache: dir, dir: dir}
	again, err := RunSpec(context.Background(), spec, Config{Cache: rec})
	if err != nil {
		t.Fatalf("campaign failed on a truncated cache file: %v", err)
	}
	if rec.deleted != 1 {
		t.Errorf("deletes = %d, want 1 (the truncated entry)", rec.deleted)
	}
	if again.CacheHits != 0 || again.Executed != again.Jobs {
		t.Errorf("truncated entry served: hits/executed = %d/%d", again.CacheHits, again.Executed)
	}
	if !bytes.Equal(artifactBytes(t, clean), artifactBytes(t, again)) {
		t.Error("artifact after truncation-recovery differs from the clean run")
	}
	// And the recomputation repaired the file bit-identically.
	healed, ok, err := dir.Get(key)
	if err != nil || !ok {
		t.Fatalf("entry not rewritten: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(healed, whole) {
		t.Error("healed entry differs from the original bytes")
	}
}

// recordingCache counts Deletes while delegating everything, standing in
// for the instrumented decorator in the truncation regression test.
type recordingCache struct {
	cache.Cache
	dir     *cache.Dir
	deleted int
}

func (r *recordingCache) Delete(key string) error {
	r.deleted++
	return r.dir.Delete(key)
}

// cellKeyFor derives the cache key of one cell of spec for tests,
// addressing the family by name with an optional k param (k < 0 = none).
func cellKeyFor(t testing.TB, spec Spec, adv string, n, k int) string {
	t.Helper()
	sc := Scenario{Adversary: adv}
	if k >= 0 {
		sc.Params = map[string]any{"k": k}
	}
	grounds, err := expandScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(grounds) != 1 {
		t.Fatalf("scenario %s expanded to %d ground scenarios, want 1", sc, len(grounds))
	}
	return spec.cellCacheKey(grounds[0], n)
}

// TestCacheKeySensitivity: every determinant of a cell's results changes
// its content address.
func TestCacheKeySensitivity(t *testing.T) {
	base := Spec{Scenarios: named("random-tree"), Ns: []int{8}, Trials: 3, Seed: 1}
	key := cellKeyFor(t, base, "random-tree", 8, -1)
	mutations := map[string]func(*Spec){
		"seed":       func(s *Spec) { s.Seed++ },
		"trials":     func(s *Spec) { s.Trials++ },
		"goal":       func(s *Spec) { s.Goal = "gossip" },
		"max_rounds": func(s *Spec) { s.MaxRounds = 500 },
	}
	for name, mutate := range mutations {
		spec := base
		mutate(&spec)
		if cellKeyFor(t, spec, "random-tree", 8, -1) == key {
			t.Errorf("cache key insensitive to %s", name)
		}
	}
	if cellKeyFor(t, base, "k-leaves", 8, 2) == cellKeyFor(t, base, "k-leaves", 8, 3) {
		t.Error("cache key insensitive to the k param")
	}
	if cellKeyFor(t, base, "random-tree", 16, -1) == key {
		t.Error("cache key insensitive to n")
	}
	if cellKeyFor(t, base, "random-path", 8, -1) == key {
		t.Error("cache key insensitive to adversary")
	}
	// Name is presentation, not physics: it must NOT change the address.
	named := base
	named.Name = "presentation-only"
	if cellKeyFor(t, named, "random-tree", 8, -1) != key {
		t.Error("cache key depends on the campaign name")
	}
}

// BenchmarkCampaignCacheColdWarm measures the cell cache's effect: the
// cold path computes every cell, the warm path replays them from the
// store. The reported cold/warm ratio is the speedup.
func BenchmarkCampaignCacheColdWarm(b *testing.B) {
	spec := Spec{
		Name:      "cache-bench",
		Scenarios: named("random-tree", "random-path"),
		Ns:        []int{32, 64},
		Trials:    25,
		Seed:      1,
	}
	run := func(c cache.Cache) error {
		o, err := RunSpec(context.Background(), spec, Config{Cache: c})
		if err == nil && o.Failed != 0 {
			err = fmt.Errorf("%d jobs failed", o.Failed)
		}
		return err
	}
	shared := cache.NewMemory()
	if err := run(shared); err != nil { // prime the warm path
		b.Fatal(err)
	}
	var coldTotal, warmTotal time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if err := run(cache.NewMemory()); err != nil { // fresh cache: all misses
			b.Fatal(err)
		}
		coldTotal += time.Since(start)
		start = time.Now()
		if err := run(shared); err != nil { // primed cache: all hits
			b.Fatal(err)
		}
		warmTotal += time.Since(start)
	}
	coldNs := float64(coldTotal.Nanoseconds()) / float64(b.N)
	warmNs := float64(warmTotal.Nanoseconds()) / float64(b.N)
	b.ReportMetric(coldNs/1e6, "cold-ms/op")
	b.ReportMetric(warmNs/1e6, "warm-ms/op")
	if warmNs > 0 {
		b.ReportMetric(coldNs/warmNs, "cold/warm-speedup")
	}
}
