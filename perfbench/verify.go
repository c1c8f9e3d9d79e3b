package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"

	"maxembed/internal/embedding"
	"maxembed/internal/server"
	"maxembed/internal/serving"
)

// checker verifies served lookups against the embedding synthesizer the
// DB was built with: every served vector must equal the synthesizer's
// output bit for bit, and every distinct requested key must be either
// served or reported failed, with nothing else in the response.
type checker struct {
	syn      *embedding.Synthesizer
	dim      int
	numItems int

	// expect holds each key's vector as the server's JSON encoder writes
	// it (shortest round-trip decimal per element), when precomputed.
	expect [][]byte

	mu    sync.Mutex
	bad   int64
	first error
}

// precomputeJSON renders every key's vector as JSON array elements. A
// response element list equal to it byte for byte parses to the same
// values, so checkJSON can skip ParseFloat for it; any other rendering
// still gets the element-wise ParseFloat check.
func (c *checker) precomputeJSON() {
	c.expect = make([][]byte, c.numItems)
	for k := range c.expect {
		var b []byte
		for j := 0; j < c.dim; j++ {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, float64(c.syn.At(uint32(k), j)), 'g', -1, 32)
		}
		c.expect[k] = b
	}
}

func newChecker(dim int, seed int64, numItems int) (*checker, error) {
	syn, err := embedding.NewSynthesizer(dim, seed)
	if err != nil {
		return nil, err
	}
	return &checker{syn: syn, dim: dim, numItems: numItems}, nil
}

// note records a mismatch; the run fails if any was recorded.
func (c *checker) note(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bad++
	if c.first == nil {
		c.first = err
	}
}

// result returns the mismatch count and the first mismatch.
func (c *checker) result() (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bad, c.first
}

// keyMarks tracks which of a query's distinct keys a response accounted
// for. One per goroutine; epochs avoid clearing between queries.
type keyMarks struct {
	epoch    int32
	want     []int32 // key requested in this epoch
	seen     []int32 // key accounted for in this epoch
	distinct int
}

func (c *checker) newMarks() *keyMarks {
	return &keyMarks{want: make([]int32, c.numItems), seen: make([]int32, c.numItems)}
}

func (m *keyMarks) begin(query []uint32) {
	m.epoch++
	m.distinct = 0
	for _, k := range query {
		if m.want[k] != m.epoch {
			m.want[k] = m.epoch
			m.distinct++
		}
	}
}

// take marks k accounted for and reports whether it was requested and
// not yet accounted for.
func (m *keyMarks) take(k uint32) bool {
	if int(k) >= len(m.want) || m.want[k] != m.epoch || m.seen[k] == m.epoch {
		return false
	}
	m.seen[k] = m.epoch
	m.distinct--
	return true
}

// account marks k as served or failed; it rejects keys not requested and
// keys accounted for twice.
func (m *keyMarks) account(k uint32) error {
	if m.take(k) {
		return nil
	}
	if int(k) < len(m.want) && m.want[k] == m.epoch {
		return fmt.Errorf("key %d appears twice in response", k)
	}
	return fmt.Errorf("key %d in response was not requested", k)
}

func (m *keyMarks) done() error {
	if m.distinct != 0 {
		return fmt.Errorf("%d requested keys neither served nor listed as failed", m.distinct)
	}
	return nil
}

// checkBits compares one served element with the synthesizer's.
func (c *checker) checkBits(k uint32, j int, bits uint32) error {
	if want := math.Float32bits(c.syn.At(k, j)); bits != want {
		return fmt.Errorf("key %d element %d: got %#08x, want %#08x", k, j, bits, want)
	}
	return nil
}

// checkResult verifies an in-process lookup result. It returns the number
// of failed keys.
func (c *checker) checkResult(m *keyMarks, query []uint32, res *serving.Result) (int, error) {
	m.begin(query)
	for i, k := range res.Keys {
		if err := m.account(k); err != nil {
			return 0, err
		}
		if res.Refs != nil && res.Refs[i].Valid() {
			if err := c.checkPayload(k, res.Refs[i].Payload()); err != nil {
				return 0, err
			}
			continue
		}
		v := res.Vectors[i]
		if len(v) != c.dim {
			return 0, fmt.Errorf("key %d: vector has %d elements, want %d", k, len(v), c.dim)
		}
		for j, f := range v {
			if err := c.checkBits(k, j, math.Float32bits(f)); err != nil {
				return 0, err
			}
		}
	}
	for _, k := range res.FailedKeys {
		if err := m.account(k); err != nil {
			return 0, err
		}
	}
	return len(res.FailedKeys), m.done()
}

// checkPayload verifies a raw little-endian float32 payload.
func (c *checker) checkPayload(k uint32, p []byte) error {
	if len(p) != 4*c.dim {
		return fmt.Errorf("key %d: payload has %d bytes, want %d", k, len(p), 4*c.dim)
	}
	for j := 0; j < c.dim; j++ {
		if err := c.checkBits(k, j, binary.LittleEndian.Uint32(p[4*j:])); err != nil {
			return err
		}
	}
	return nil
}

// checkFrame verifies an MXE1 binary lookup response (see
// internal/server/lease.go for the layout). It returns the served and
// failed key counts.
func (c *checker) checkFrame(m *keyMarks, query []uint32, body []byte) (served, failed int, err error) {
	m.begin(query)
	if len(body) < 16 || string(body[:4]) != "MXE1" {
		return 0, 0, errors.New("not an MXE1 frame")
	}
	dim := int(binary.LittleEndian.Uint32(body[4:]))
	served = int(binary.LittleEndian.Uint32(body[8:]))
	failed = int(binary.LittleEndian.Uint32(body[12:]))
	if served > 0 && dim != c.dim {
		return 0, 0, fmt.Errorf("frame dim %d, want %d", dim, c.dim)
	}
	rec := 4 + 4*dim
	if want := 16 + served*rec + 4*failed; len(body) != want {
		return 0, 0, fmt.Errorf("frame is %d bytes, want %d", len(body), want)
	}
	p := body[16:]
	for i := 0; i < served; i++ {
		k := binary.LittleEndian.Uint32(p)
		if err := m.account(k); err != nil {
			return 0, 0, err
		}
		if err := c.checkPayload(k, p[4:rec]); err != nil {
			return 0, 0, err
		}
		p = p[rec:]
	}
	for i := 0; i < failed; i++ {
		if err := m.account(binary.LittleEndian.Uint32(p[4*i:])); err != nil {
			return 0, 0, err
		}
	}
	return served, failed, m.done()
}

// checkJSON verifies a JSON lookup response, parsing every element with
// strconv.ParseFloat(…, 32). It returns the response's stats and its
// failed key count.
func (c *checker) checkJSON(m *keyMarks, query []uint32, body []byte) (st server.LookupStats, failed int, err error) {
	m.begin(query)
	p := &jsonScan{b: body}
	if !p.lit(`{"embeddings":{`) {
		return st, 0, p.fail("embeddings object")
	}
	for n := 0; !p.lit("}"); n++ {
		if n > 0 && !p.lit(",") {
			return st, 0, p.fail("',' between embeddings")
		}
		if !p.lit(`"`) {
			return st, 0, p.fail("key string")
		}
		k, ok := p.uint('"')
		if !ok || !p.lit(`":[`) {
			return st, 0, p.fail("key")
		}
		if err := m.account(k); err != nil {
			return st, 0, err
		}
		if c.expect != nil {
			if end := bytes.IndexByte(p.b[p.i:], ']'); end >= 0 && bytes.Equal(p.b[p.i:p.i+end], c.expect[k]) {
				p.i += end + 1
				continue
			}
		}
		for j := 0; ; j++ {
			tok, ok := p.until(",]")
			if !ok {
				return st, 0, p.fail("vector element")
			}
			f, err := strconv.ParseFloat(string(tok), 32)
			if err != nil {
				return st, 0, fmt.Errorf("key %d element %d: %w", k, j, err)
			}
			if j >= c.dim {
				return st, 0, fmt.Errorf("key %d: more than %d elements", k, c.dim)
			}
			if err := c.checkBits(k, j, math.Float32bits(float32(f))); err != nil {
				return st, 0, err
			}
			if p.lit("]") {
				if j+1 != c.dim {
					return st, 0, fmt.Errorf("key %d: %d elements, want %d", k, j+1, c.dim)
				}
				break
			}
			p.i++ // ','
		}
	}
	if p.lit(`,"degraded":true,"failed_keys":[`) {
		for {
			k, ok := p.uint(',', ']')
			if !ok {
				return st, 0, p.fail("failed key")
			}
			if err := m.account(k); err != nil {
				return st, 0, err
			}
			failed++
			if p.lit("]") {
				break
			}
			p.i++
		}
	}
	if !p.lit(`,"stats":`) {
		return st, 0, p.fail("stats")
	}
	rest := bytes.TrimSpace(p.b[p.i:])
	if len(rest) < 2 || rest[len(rest)-1] != '}' {
		return st, 0, p.fail("closing brace")
	}
	if err := json.Unmarshal(rest[:len(rest)-1], &st); err != nil {
		return st, 0, fmt.Errorf("stats: %w", err)
	}
	return st, failed, m.done()
}

// jsonScan is a cursor over the fixed shape the server's hand-rolled
// JSON encoder emits.
type jsonScan struct {
	b []byte
	i int
}

func (p *jsonScan) lit(s string) bool {
	if bytes.HasPrefix(p.b[p.i:], []byte(s)) {
		p.i += len(s)
		return true
	}
	return false
}

// until returns the bytes before the next of the stop characters.
func (p *jsonScan) until(stops string) ([]byte, bool) {
	j := bytes.IndexAny(p.b[p.i:], stops)
	if j <= 0 {
		return nil, false
	}
	tok := p.b[p.i : p.i+j]
	p.i += j
	return tok, true
}

// uint parses a decimal uint32 ending before one of the stop bytes.
func (p *jsonScan) uint(stops ...byte) (uint32, bool) {
	var v uint64
	start := p.i
	for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
		v = v*10 + uint64(p.b[p.i]-'0')
		p.i++
	}
	if p.i == start || p.i == len(p.b) || v > math.MaxUint32 || bytes.IndexByte(stops, p.b[p.i]) < 0 {
		return 0, false
	}
	return uint32(v), true
}

func (p *jsonScan) fail(what string) error {
	return fmt.Errorf("malformed JSON response at byte %d: expected %s", p.i, what)
}
