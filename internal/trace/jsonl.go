package trace

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"sync"
)

// JSONLWriter is a sink that appends each completed trace as one JSON
// line to an io.Writer — the -trace-out format of privedit-edit. Safe
// for concurrent use.
type JSONLWriter struct {
	mu  sync.Mutex
	w   *bufio.Writer
	c   io.Closer
	err error
}

// NewJSONLWriter wraps w. If w is also an io.Closer, Close closes it.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	jw := &JSONLWriter{w: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		jw.c = c
	}
	return jw
}

// OpenJSONL creates (truncating) path and returns a JSONL sink writing to
// it.
func OpenJSONL(path string) (*JSONLWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return NewJSONLWriter(f), nil
}

// Write records one trace; pass method value JSONLWriter.Write to
// AddSink. Encoding errors are sticky and surfaced by Close.
func (jw *JSONLWriter) Write(tr Trace) {
	jw.mu.Lock()
	defer jw.mu.Unlock()
	if jw.err != nil {
		return
	}
	b, err := json.Marshal(tr)
	if err != nil {
		jw.err = err
		return
	}
	if _, err := jw.w.Write(b); err != nil {
		jw.err = err
		return
	}
	if err := jw.w.WriteByte('\n'); err != nil {
		jw.err = err
	}
}

// Close flushes and closes the underlying writer, returning the first
// error encountered over the sink's lifetime.
func (jw *JSONLWriter) Close() error {
	jw.mu.Lock()
	defer jw.mu.Unlock()
	if err := jw.w.Flush(); err != nil && jw.err == nil {
		jw.err = err
	}
	if jw.c != nil {
		if err := jw.c.Close(); err != nil && jw.err == nil {
			jw.err = err
		}
	}
	return jw.err
}
