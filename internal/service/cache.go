// The service's in-memory side of idempotent resubmission. The routers are
// deterministic functions of circuit, width and options, so a request
// whose content key was answered before is answered again from the result
// store (DESIGN.md §9). These caches keep that answer in memory: a named
// circuit is synthesized and marshaled once per (name, seed), a content
// key's result is read from the store once rather than once per hit, and
// each result is encoded for the wire at most once. Keys and response
// bodies are byte-identical to computing every step again.
package service

import (
	"encoding/json"
	"sync"

	"fpgarouter/internal/circuits"
	"fpgarouter/internal/router"
)

// memoCapacity bounds the named-circuit memo. Fourteen paper circuits at a
// few synthesis seeds each fit; beyond that the oldest entry goes first.
const memoCapacity = 64

type memoKey struct {
	name string
	seed int64
}

// namedCircuit is a synthesized paper circuit and its wire JSON, the
// content key's circuit chunk. Every job naming it shares it: read-only.
type namedCircuit struct {
	ckt  *circuits.Circuit
	wire []byte
}

// circuitMemo maps (name, synthesis seed) to the synthesized circuit, so a
// resubmitted named request neither synthesizes nor marshals its circuit.
// It holds memoCapacity entries and evicts in insertion order.
type circuitMemo struct {
	mu    sync.Mutex
	m     map[memoKey]namedCircuit
	order [memoCapacity]memoKey // ring of keys, oldest at next once full
	next  int
}

// get returns the circuit spec synthesizes at seed, synthesizing it on a
// miss. Two concurrent misses both synthesize; the first stored wins, so
// every caller shares one circuit.
func (c *circuitMemo) get(spec circuits.Spec, seed int64) (namedCircuit, error) {
	k := memoKey{spec.Name, seed}
	c.mu.Lock()
	nc, ok := c.m[k]
	c.mu.Unlock()
	if ok {
		return nc, nil
	}
	ckt, err := circuits.Synthesize(spec, seed)
	if err != nil {
		return namedCircuit{}, err
	}
	wire, err := json.Marshal(ckt)
	if err != nil {
		return namedCircuit{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if nc, ok := c.m[k]; ok {
		return nc, nil
	}
	if c.m == nil {
		c.m = make(map[memoKey]namedCircuit, memoCapacity)
	}
	if len(c.m) == memoCapacity {
		delete(c.m, c.order[c.next])
	}
	nc = namedCircuit{ckt, wire}
	c.m[k] = nc
	c.order[c.next] = k
	c.next = (c.next + 1) % memoCapacity
	return nc, nil
}

// resultEntry is a result the service holds in memory: a job's width and
// result, and the result's wire encoding, made on the first fetch. Cache
// hits share the entry of the job they repeat, so nothing writes it after
// construction but the encoding's once.
type resultEntry struct {
	width int
	res   *router.Result

	once sync.Once
	body []byte
	err  error
}

// encoded returns the result as writeJSON nests it in a ResultResponse:
// json.MarshalIndent(res, "  ", "  "), encoded on the first call only.
func (e *resultEntry) encoded() ([]byte, error) {
	e.once.Do(func() { e.body, e.err = json.MarshalIndent(e.res, "  ", "  ") })
	return e.body, e.err
}

// lookupResult finds the completed answer under key: in the in-memory
// index first, then in the result store, whose successful read it indexes
// (a miss, a read error, or no store all report false).
func (s *Service) lookupResult(key string) (*resultEntry, bool) {
	if key == "" {
		return nil, false
	}
	if e, ok := s.index.Load(key); ok {
		return e.(*resultEntry), true
	}
	if s.cfg.Results == nil {
		return nil, false
	}
	var stored storedResult
	if ok, err := s.cfg.Results.Get(key, &stored); !ok || err != nil || stored.Result == nil {
		return nil, false
	}
	e, _ := s.index.LoadOrStore(key, &resultEntry{width: stored.Width, res: stored.Result})
	return e.(*resultEntry), true
}
