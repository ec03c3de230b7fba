package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"

	"past/internal/obs"
)

// span is one timed call the benchmark made into the system, or one
// routing hop the system reported back. Spans of one request share Req.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog collects one client goroutine's spans in memory; spans are
// written out only when the benchmark ends, so recording costs an
// append. A nil *spanLog records nothing (untraced runs).
type spanLog struct {
	client uint64
	next   uint64
	spans  []span
}

func newSpanLog(client int) *spanLog { return &spanLog{client: uint64(client)} }

// add records a span and returns its id. Ids carry the client index in
// their top bits so logs from several goroutines never collide.
func (l *spanLog) add(parent, req uint64, name string, start, end time.Time) uint64 {
	if l == nil {
		return 0
	}
	l.next++
	sid := l.client<<48 | l.next
	l.spans = append(l.spans, span{ID: sid, Parent: parent, Req: req, Name: name,
		Start: start.UnixNano(), End: end.UnixNano()})
	return sid
}

// addHops records a traced route's hop records as children of the
// lookup span. A hop record carries its forwarding RPC's duration but
// not its start, and hop RPCs nest (hop i's RPC contains hop i+1's), so
// every hop span is anchored at the parent's start.
func (l *spanLog) addHops(parent, req uint64, start time.Time, hops []obs.HopRecord) {
	for _, h := range hops {
		name := "hop." + h.Choice
		if h.Failed {
			name += ".failed"
		}
		l.add(parent, req, name, start, start.Add(time.Duration(h.RPCNanos)))
	}
}

// writeSpans writes every log's spans to path as JSON lines.
func writeSpans(path string, logs []*spanLog) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, l := range logs {
		if l == nil {
			continue
		}
		for _, s := range l.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
