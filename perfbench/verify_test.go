package main

import (
	"bytes"
	"encoding/binary"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"maxembed"
	"maxembed/internal/server"
	"maxembed/internal/workload"
)

// testDB builds a small DB and an isolated (uncoalesced) handler over it.
func testDB(t *testing.T) (*maxembed.DB, *server.Handler, [][]uint32, *checker) {
	t.Helper()
	tr, err := workload.Generate(workload.Profile{
		Name: "t", Items: 600, Queries: 800, MeanQueryLen: 8,
		Communities: 50, CommunityAffinity: 0.8, CommunitySpread: 0.5,
		ZipfS: 1.2, PopularityOffset: 0.05, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	db, err := maxembed.Open(tr.NumItems, tr.Queries, maxembed.WithEmbeddingDim(embDim), maxembed.WithSeed(dbSeed))
	if err != nil {
		t.Fatal(err)
	}
	h := server.NewDynamic(db.Handle(), db.Backend(), server.WithoutCoalescing())
	t.Cleanup(h.Close)
	chk, err := newChecker(embDim, dbSeed, tr.NumItems)
	if err != nil {
		t.Fatal(err)
	}
	return db, h, tr.Queries[:20], chk
}

// lookup serves one query through the handler and returns the body.
func lookup(t *testing.T, h http.Handler, q []uint32, binary bool) []byte {
	t.Helper()
	tr := newHTTPTraffic("", binary, [][]uint32{q}, 0, nil)
	req := httptest.NewRequest(http.MethodPost, "/v1/lookup", bytes.NewReader(tr.bodies[0]))
	if binary {
		req.Header.Set("Accept", "application/octet-stream")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("lookup: %d %s", rec.Code, rec.Body.String())
	}
	return rec.Body.Bytes()
}

func TestCheckJSONCatchesFlippedByteAndDroppedKey(t *testing.T) {
	_, h, queries, chk := testDB(t)
	m := chk.newMarks()
	for i, q := range queries {
		if i == len(queries)/2 {
			chk.precomputeJSON() // the rest take the text-comparison path
		}
		body := lookup(t, h, q, false)
		if _, _, err := chk.checkJSON(m, q, body); err != nil {
			t.Fatalf("served response rejected: %v", err)
		}
		// Flip one digit of the first element of the first vector.
		bad := append([]byte(nil), body...)
		i := bytes.Index(bad, []byte(":[")) + 2
		for bad[i] < '1' || bad[i] > '8' {
			i++
		}
		bad[i]++
		if _, _, err := chk.checkJSON(m, q, bad); err == nil {
			t.Fatal("flipped payload digit not caught")
		}
		// Drop the first served key's entry.
		start := len(`{"embeddings":{`)
		end := bytes.Index(body, []byte("],")) + 2
		if end < start+2 {
			continue // single-key response: nothing to keep after the drop
		}
		dropped := append(append([]byte(nil), body[:start]...), body[end:]...)
		if _, _, err := chk.checkJSON(m, q, dropped); err == nil || !strings.Contains(err.Error(), "neither served nor listed") {
			t.Fatalf("dropped key not caught: %v", err)
		}
	}
}

func TestCheckFrameCatchesFlippedByteAndDroppedKey(t *testing.T) {
	_, h, queries, chk := testDB(t)
	m := chk.newMarks()
	for _, q := range queries {
		body := lookup(t, h, q, true)
		if _, _, err := chk.checkFrame(m, q, body); err != nil {
			t.Fatalf("served frame rejected: %v", err)
		}
		bad := append([]byte(nil), body...)
		bad[16+4+3] ^= 0x01 // a payload byte of the first record
		if _, _, err := chk.checkFrame(m, q, bad); err == nil {
			t.Fatal("flipped payload byte not caught")
		}
		served := binary.LittleEndian.Uint32(body[8:])
		rec := 4 + 4*embDim
		dropped := append(append([]byte(nil), body[:16]...), body[16+rec:]...)
		binary.LittleEndian.PutUint32(dropped[8:], served-1)
		if _, _, err := chk.checkFrame(m, q, dropped); err == nil {
			t.Fatal("dropped key not caught")
		}
	}
}

func TestCheckResultCatchesFlippedByteAndDroppedKey(t *testing.T) {
	db, _, queries, chk := testDB(t)
	m := chk.newMarks()
	sess := db.NewSession()
	for _, q := range queries {
		res, err := sess.Lookup(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := chk.checkResult(m, q, &res); err != nil {
			t.Fatalf("served result rejected: %v", err)
		}
		v := res.Vectors[0]
		orig := v[0]
		v[0] = -v[0] + 1e-3 // flips sign and mantissa bytes
		if _, err := chk.checkResult(m, q, &res); err == nil {
			t.Fatal("altered vector not caught")
		}
		v[0] = orig
		res.Keys, res.Vectors = res.Keys[1:], res.Vectors[1:]
		if res.Refs != nil {
			res.Refs = res.Refs[1:]
		}
		if _, err := chk.checkResult(m, q, &res); err == nil {
			t.Fatal("dropped key not caught")
		}
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "lookup", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent
	}
	self := selfTimes(spans)
	if got, want := self[1], int64(100-50-10); got != want {
		t.Fatalf("root self time %d, want %d", got, want)
	}
	if self[2] != 30 {
		t.Fatalf("leaf self time %d, want 30", self[2])
	}
}
