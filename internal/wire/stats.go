package wire

import (
	"sync/atomic"

	"planarflow/internal/obs"
)

// Counters is the transport's observability surface: lock-free counts
// bumped on the hot path by servers and client pools, read at scrape time
// by /metricsz (RegisterObs) and snapshotted into Stats for in-process
// readers. A zero Counters is ready to use.
type Counters struct {
	connsOpen  atomic.Int64
	connsTotal atomic.Int64
	framesIn   atomic.Int64
	framesOut  atomic.Int64
	bytesIn    atomic.Int64
	bytesOut   atomic.Int64
	flushes    atomic.Int64

	// The batch frames of more than one query the server decoded, the
	// queries in them, and the largest such frame (AddCoalesced). Nothing
	// coalesces frames into batches; the names are the series'.
	coalescedBatches atomic.Int64
	coalescedQueries atomic.Int64
	coalescedMax     atomic.Int64
}

// Stats is one JSON-friendly snapshot of a Counters.
type Stats struct {
	// ConnsOpen / ConnsTotal: currently open and lifetime-accepted (or
	// dialed) connections.
	ConnsOpen  int64 `json:"conns_open"`
	ConnsTotal int64 `json:"conns_total"`
	// Frame and byte totals, both directions, at frame granularity
	// (header + trace block + payload + CRC).
	FramesIn  int64 `json:"frames_in"`
	FramesOut int64 `json:"frames_out"`
	BytesIn   int64 `json:"bytes_in"`
	BytesOut  int64 `json:"bytes_out"`
	// Flushes counts writer syscalls; FramesOut/Flushes is the write
	// coalescing factor a pipelined load achieves.
	Flushes int64 `json:"flushes"`
	// Batch-frame shape: how many batch frames of more than one query the
	// server decoded, the total queries they carried, and the largest one.
	CoalescedBatches int64 `json:"coalesced_batches"`
	CoalescedQueries int64 `json:"coalesced_queries"`
	CoalescedMax     int64 `json:"coalesced_max"`
}

// Snapshot copies the current counter values.
func (c *Counters) Snapshot() Stats {
	return Stats{
		ConnsOpen:        c.connsOpen.Load(),
		ConnsTotal:       c.connsTotal.Load(),
		FramesIn:         c.framesIn.Load(),
		FramesOut:        c.framesOut.Load(),
		BytesIn:          c.bytesIn.Load(),
		BytesOut:         c.bytesOut.Load(),
		Flushes:          c.flushes.Load(),
		CoalescedBatches: c.coalescedBatches.Load(),
		CoalescedQueries: c.coalescedQueries.Load(),
		CoalescedMax:     c.coalescedMax.Load(),
	}
}

// AddCoalesced records one decoded batch frame of n queries. A frame of
// one query is not counted.
func (c *Counters) AddCoalesced(n int) {
	if n <= 1 {
		return
	}
	c.coalescedBatches.Add(1)
	c.coalescedQueries.Add(int64(n))
	for {
		cur := c.coalescedMax.Load()
		if int64(n) <= cur || c.coalescedMax.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}

// RegisterObs exposes these counters on a telemetry registry, read at
// scrape time so the hot path stays a single set of atomic bumps. The
// labels distinguish roles when several Counters (a server, client
// pools) share one registry; re-registering the same labels rebinds the
// series to c.
func (c *Counters) RegisterObs(r *obs.Registry, labels ...obs.Label) {
	ctr := func(name, help string, v *atomic.Int64) {
		r.CounterFunc(name, help, v.Load, labels...)
	}
	r.Gauge("wire_conns_open", "Currently open wire connections.",
		func() float64 { return float64(c.connsOpen.Load()) }, labels...)
	ctr("wire_conns_total", "Lifetime accepted (or dialed) wire connections.", &c.connsTotal)
	ctr("wire_frames_in_total", "Frames received.", &c.framesIn)
	ctr("wire_frames_out_total", "Frames sent.", &c.framesOut)
	ctr("wire_bytes_in_total", "Bytes received at frame granularity.", &c.bytesIn)
	ctr("wire_bytes_out_total", "Bytes sent at frame granularity.", &c.bytesOut)
	ctr("wire_flushes_total", "Writer flush syscalls (frames_out/flushes is the coalescing factor).", &c.flushes)
	ctr("wire_coalesced_batches_total", "Batch frames of more than one query the server decoded.", &c.coalescedBatches)
	ctr("wire_coalesced_queries_total", "Queries in the batch frames of more than one query the server decoded.", &c.coalescedQueries)
	r.Gauge("wire_coalesced_max", "Queries in the largest batch frame of more than one query the server decoded.",
		func() float64 { return float64(c.coalescedMax.Load()) }, labels...)
}

func (c *Counters) noteFrameIn(payloadLen int) {
	c.framesIn.Add(1)
	c.bytesIn.Add(int64(frameOverhead + payloadLen))
}

func (c *Counters) noteFrameOut(payloadLen int) {
	c.framesOut.Add(1)
	c.bytesOut.Add(int64(frameOverhead + payloadLen))
}
