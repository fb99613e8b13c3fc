package campaign

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzSpecJSON fuzzes the spec decode → canonicalize → re-encode cycle,
// the untrusted path behind cmd/campaign -spec, campaignd submissions,
// and cluster cell leases. Pinned properties: parsing and
// canonicalization never panic; a spec in the retired adversaries/ks
// schema (either field, or "version": 1) is rejected; canonicalization is
// idempotent; the canonical form survives a JSON round-trip unchanged;
// and every spelling of a grid shares one SpecHash — the identity
// campaignd's campaign ids key on, as the cell cache and the cluster
// handshake key on the canonical cells. The seed-legacy corpus entry is
// a retired-schema spec.
func FuzzSpecJSON(f *testing.F) {
	f.Add([]byte(`{"scenarios":[{"adversary":"random-tree"}],"ns":[8],"trials":2,"seed":1}`))
	f.Add([]byte(`{"scenarios":[{"adversary":"k-leaves","params":{"k":[2,3]}}],"ns":[8,16],"trials":4,"seed":7,"goal":"gossip"}`))
	f.Add([]byte(`{"version":2,"scenarios":[{"adversary":"k-leaves","params":{"k":[2,3]}}],"ns":[8],"trials":2,"seed":1}`))
	f.Add([]byte(`{"version":2,"scenarios":[{"adversary":"two-phase-path","params":{"switch_at":3}}],"ns":[9],"trials":1,"seed":3,"max_rounds":50}`))
	f.Add([]byte(`{"version":3,"ns":[8],"trials":1,"seed":1}`))
	f.Add([]byte(`{"scenarios":[{"adversary":"nope"}],"ns":[8],"trials":1,"seed":1}`))
	f.Add([]byte(`{"ns":[0],"trials":-1}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"scenarios":[{"adversary":"random-tree"}],"ns":[8,9,10,11],"trials":4611686018427387904,"seed":1}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := LoadSpec(bytes.NewReader(data))
		var canon Spec
		if err == nil {
			if canon, err = spec.Canonical(); err != nil {
				// Invalid specs must still hash deterministically (the hash
				// of the raw form), never panic.
				_ = SpecHash(spec)
			}
		}
		if retiredSchema(data) && err == nil {
			t.Fatalf("spec in the retired adversaries/ks schema accepted: %s", data)
		}
		if err != nil {
			return
		}
		// Idempotence: canonicalizing the canonical form is the identity.
		canon2, err := canon.Canonical()
		if err != nil {
			t.Fatalf("canonical spec failed to re-canonicalize: %v\nspec: %s", err, data)
		}
		if !reflect.DeepEqual(canon, canon2) {
			t.Fatalf("canonicalization not idempotent:\n first %+v\nsecond %+v", canon, canon2)
		}
		// Round-trip: the canonical form encodes to JSON that reparses and
		// re-canonicalizes to itself.
		blob, err := json.Marshal(canon)
		if err != nil {
			t.Fatalf("marshaling canonical spec: %v", err)
		}
		back, err := LoadSpec(bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("reparsing canonical spec: %v\njson: %s", err, blob)
		}
		backCanon, err := back.Canonical()
		if err != nil {
			t.Fatalf("re-canonicalizing reparsed spec: %v\njson: %s", err, blob)
		}
		if !reflect.DeepEqual(canon, backCanon) {
			t.Fatalf("canonical spec does not survive a JSON round-trip:\nbefore %+v\nafter  %+v", canon, backCanon)
		}
		// Every spelling shares one identity.
		if SpecHash(spec) != SpecHash(canon) || SpecHash(canon) != SpecHash(backCanon) {
			t.Fatalf("spec hash differs across equivalent spellings of: %s", data)
		}
	})
}

// retiredSchema reports whether data is a JSON object in the retired
// adversaries/ks schema: it carries either field, or "version": 1. Keys
// match as LoadSpec matches them: case-insensitively, the last one
// winning.
func retiredSchema(data []byte) bool {
	var probe struct {
		Version     float64         `json:"version"`
		Adversaries json.RawMessage `json:"adversaries"`
		Ks          json.RawMessage `json:"ks"`
	}
	if json.Unmarshal(data, &probe) != nil {
		return false
	}
	return probe.Adversaries != nil || probe.Ks != nil || probe.Version == 1
}

// FuzzCellEntry fuzzes DecodeCellEntry, the one reader of cell cache
// entries and cluster result pushes — bytes from disk or from any worker
// that can reach the coordinator. Pinned properties: decoding never
// panics; whatever decodes re-encodes to exactly the input bytes (one
// encoding per entry, so the cache and the warehouse never hold two
// spellings of a cell); and the decoder allocates no more than the input
// can justify — at most one round count per input byte, plus an error
// message — whatever trial count the header claims. The seeds are the
// committed corpus: valid entries (one of an empty cell name), torn,
// trailing, foreign, mis-counted and non-minimal ones, a count beyond the
// bytes, and the JSON entry of an older build.
func FuzzCellEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, cell string, trials int) {
		var (
			rounds []uint32
			err    error
		)
		decode := func() { rounds, err = DecodeCellEntry(data, cell, trials) }
		limit := 4*uint64(len(data)) + 8*uint64(len(data)+len(cell)) + 1024
		grew := allocatedBytes(decode)
		for retry := 0; grew > limit && retry < 2; retry++ {
			// The fuzzing process allocates on other goroutines too; a
			// real over-allocation repeats on every call.
			grew = min(grew, allocatedBytes(decode))
		}
		if grew > limit {
			t.Fatalf("decoding %d bytes allocated %d bytes (limit %d)", len(data), grew, limit)
		}
		if err != nil {
			return
		}
		if len(rounds) != trials {
			t.Fatalf("decoded %d trials, want %d", len(rounds), trials)
		}
		if again := appendCellEntry(nil, cell, rounds); !bytes.Equal(again, data) {
			t.Fatalf("entry re-encodes differently:\n  in %x\n out %x", data, again)
		}
	})
}
