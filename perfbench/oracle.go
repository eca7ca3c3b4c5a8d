package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"

	"boedag/internal/serve"
)

// The output oracle. A hit response must equal, byte for byte, the
// reference a separate, fresh server produced for the same body. A miss
// response is hashed for a deterministic sample of requests and checked
// after the window against a fresh server. Every reference's makespan
// must also equal the estimator's, called directly.

func decode(body []byte) (*serve.EstimateRequest, *serve.APIError) {
	return serve.DecodeEstimateRequest(bytes.NewReader(body))
}

// serveDirect runs one /v1/estimate request through a handler with a
// response recorder: no socket.
func serveDirect(h http.Handler, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/estimate", bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// references answers every body on one fresh server and checks each
// answer's makespan against a direct estimate.
func references(bodies [][]byte) ([][]byte, error) {
	resetPools()
	s, err := newServer()
	if err != nil {
		return nil, err
	}
	h := s.Handler()
	refs := make([][]byte, len(bodies))
	for i, b := range bodies {
		status, resp := serveDirect(h, b)
		if status != http.StatusOK {
			return nil, fmt.Errorf("reference for %s: status %d: %s", b, status, resp)
		}
		if err := checkMakespan(b, resp); err != nil {
			return nil, err
		}
		refs[i] = resp
	}
	return refs, nil
}

// checkMakespan compares a response's makespan_s with
// statemodel.New(...).Estimate(flow).Makespan for the same request.
func checkMakespan(body, resp []byte) error {
	var got struct {
		MakespanS *float64 `json:"makespan_s"`
	}
	if err := json.Unmarshal(resp, &got); err != nil || got.MakespanS == nil {
		return fmt.Errorf("response for %s has no makespan_s", body)
	}
	want, err := makespanOf(body)
	if err != nil {
		return fmt.Errorf("direct estimate of %s: %w", body, err)
	}
	if *got.MakespanS != want {
		return fmt.Errorf("makespan of %s: served %v, estimator %v", body, *got.MakespanS, want)
	}
	return nil
}

// oracle checks the responses of one run's request sequence.
type oracle struct {
	// hit workloads: refs[keys[i]] is request i's expected body.
	refs [][]byte
	keys []uint8
	// miss workloads: slot[i] >= 0 marks a sampled request, whose body
	// hash lands in hashes[slot[i]] (seen once it answered 200).
	slot   []int32
	hashes [][32]byte
	seen   []bool

	mu     sync.Mutex
	errors []string
}

func newOracle(w *workload, seq *requests, seed int64) (*oracle, error) {
	o := &oracle{}
	if w.hit {
		refs, err := references(hitKeyspace())
		if err != nil {
			return nil, err
		}
		o.refs, o.keys = refs, seq.keys
		return o, nil
	}
	o.slot = make([]int32, seq.len())
	samples := int32(0)
	for i := range o.slot {
		o.slot[i] = -1
		if draw(seed, i, 7)%uint64(w.sampleEvery) == 0 {
			o.slot[i] = samples
			samples++
		}
	}
	o.hashes, o.seen = make([][32]byte, samples), make([]bool, samples)
	return o, nil
}

func (o *oracle) fail(format string, args ...any) bool {
	o.mu.Lock()
	if len(o.errors) < 10 {
		o.errors = append(o.errors, fmt.Sprintf(format, args...))
	}
	o.mu.Unlock()
	return false
}

// check is called on every measured response, inside the window. It
// must stay cheap: a status test and, for hits, one bytes.Equal.
func (o *oracle) check(i, status int, body []byte) bool {
	if status != http.StatusOK {
		return o.fail("request %d: status %d", i, status)
	}
	if o.refs != nil {
		if !bytes.Equal(body, o.refs[o.keys[i]]) {
			return o.fail("request %d: body differs from its reference", i)
		}
		return true
	}
	if len(body) == 0 || body[0] != '{' {
		return o.fail("request %d: body is not a JSON object", i)
	}
	if k := o.slot[i]; k >= 0 {
		o.hashes[k], o.seen[k] = sha256.Sum256(body), true
	}
	return true
}

// verifySamples re-answers the sampled miss requests on a fresh server
// after the window and counts the requests whose served body differed.
// The fresh server starts from cold estimator pools, not from the ones
// the window warmed. A sample that already failed in the window is not
// counted twice.
func (o *oracle) verifySamples(bodies [][]byte) (checked, wrong int64, err error) {
	if o.slot == nil {
		return 0, 0, nil
	}
	resetPools()
	s, err := newServer()
	if err != nil {
		return 0, 0, err
	}
	h := s.Handler()
	for i, b := range bodies {
		k := o.slot[i]
		if k < 0 || !o.seen[k] {
			continue
		}
		checked++
		status, resp := serveDirect(h, b)
		switch {
		case status != http.StatusOK:
			o.fail("sample %d: reference status %d", i, status)
			wrong++
		case sha256.Sum256(resp) != o.hashes[k]:
			o.fail("sample %d: served body differs from a fresh server's", i)
			wrong++
		default:
			if err := checkMakespan(b, resp); err != nil {
				o.fail("sample %d: %v", i, err)
				wrong++
			}
		}
	}
	return checked, wrong, nil
}
