package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"rtvirt/internal/simtime"
)

// JSONL is a streaming sink that writes one JSON object per line — the
// interchange format for `rtvirt-sim -trace out.jsonl`, re-ingested by
// `rtvirt-analyze` via ReadJSONL for offline replay. It holds no events:
// memory use is O(1) regardless of run length.
type JSONL struct {
	enc *json.Encoder
	buf *bufio.Writer
	err error
}

// NewJSONL wraps w in a buffered JSONL sink. Call Flush when done.
func NewJSONL(w io.Writer) *JSONL {
	buf := bufio.NewWriter(w)
	return &JSONL{enc: json.NewEncoder(buf), buf: buf}
}

// Consume implements Sink. The first write error sticks and suppresses
// further output; check it with Flush.
func (j *JSONL) Consume(ev Event) {
	if j.err != nil {
		return
	}
	j.err = j.enc.Encode(ev)
}

// Flush drains the buffer and reports the first error encountered.
func (j *JSONL) Flush() error {
	if j.err != nil {
		return j.err
	}
	return j.buf.Flush()
}

// ReadJSONL parses a stream written by the JSONL sink, delivering each
// event to every sink in order — the offline equivalent of re-running the
// simulation with those sinks attached. It returns the number of events
// replayed. The simulator emits in time order, so an event earlier than
// the one before it is an error that names both (events count from 1);
// the sinks would otherwise report negative spans and run times.
func ReadJSONL(r io.Reader, sinks ...Sink) (int, error) {
	dec := json.NewDecoder(r)
	n := 0
	var last simtime.Time
	for {
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			if err == io.EOF {
				return n, nil
			}
			return n, fmt.Errorf("trace: event %d: %w", n+1, err)
		}
		if n > 0 && ev.At < last {
			return n, fmt.Errorf("trace: event %d at %v precedes event %d at %v", n+1, ev.At, n, last)
		}
		last = ev.At
		for _, s := range sinks {
			s.Consume(ev)
		}
		n++
	}
}
