// Package export holds the ready-made sinks for the obs event stream:
// a JSON-lines encoder, a human-readable live progress printer, a
// machine-readable run-report builder with schema validation, SSE
// replay, and Chrome trace-event timelines.
//
// Everything here is an obs.Observer (or consumes one run's events), so
// sinks compose through obs.Multi and attach to a run via
// fim.Options.Observer. The package depends only on the standard
// library.
package export

import (
	"encoding/json"
	"io"
	"sync"
	"time"

	"repro/internal/obs"
)

// JSONLines is an Observer that writes each event as one JSON object
// per line to w, stamping TimeUnixNS at write time. It is safe for
// concurrent use; writes are serialized by an internal mutex.
//
// The line format is the obs.Event JSON encoding with zero fields
// omitted — the event schema documented in README's Observability
// section. A decode loop over the output with DecodeLines round-trips
// the stream.
type JSONLines struct {
	mu  sync.Mutex
	enc *json.Encoder
	err error
}

// NewJSONLines returns a JSON-lines sink writing to w.
func NewJSONLines(w io.Writer) *JSONLines {
	return &JSONLines{enc: json.NewEncoder(w)}
}

// Event encodes e on its own line. The first write error is retained
// (Err) and later events are dropped, so a broken pipe cannot wedge or
// crash the mining run.
func (s *JSONLines) Event(e obs.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	e.TimeUnixNS = time.Now().UnixNano()
	s.err = s.enc.Encode(e)
}

// Err returns the first write error, or nil.
func (s *JSONLines) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// DecodeLines reads a JSON-lines event stream back into events,
// stopping at EOF. Used by tests and the validation tool.
func DecodeLines(r io.Reader) ([]obs.Event, error) {
	dec := json.NewDecoder(r)
	var out []obs.Event
	for {
		var e obs.Event
		if err := dec.Decode(&e); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return out, err
		}
		out = append(out, e)
	}
}
