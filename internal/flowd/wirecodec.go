package flowd

// The compact binary payload codec for the wire transport's hot ops
// (wire.OpQueryB / wire.OpBatchB): the same QueryRequest/QueryResponse
// and BatchRequest/BatchResponse values the HTTP plane carries as JSON,
// hand-encoded little-endian with length-prefixed strings and slices.
// JSON reflection is the dominant per-query cost once the decode engine
// answers in microseconds — this codec removes it from the serving path
// (the differential tests pin that a binary-routed answer renders to
// exactly the same JSON as the HTTP route's). WireClient sends nothing
// else; wire.OpQuery, the one JSON op left, has no client in this repo.
//
// Discipline mirrors the PFSNAP snapshot codec: decoders never panic,
// fail with errors wrapping ErrWireCodec, validate lengths against the
// remaining input before allocating, and reject trailing bytes.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrWireCodec is the typed sentinel every binary payload decode failure
// wraps (errors.Is-matchable), the codec twin of the frame layer's
// ErrTruncated/ErrChecksum.
var ErrWireCodec = errors.New("flowd: bad wire payload")

// nilSlice marks a nil slice in the stream, distinct from an empty one,
// so decode(encode(x)) round-trips the value exactly.
const nilSlice = ^uint32(0)

// maxWireString caps string lengths (graph ids, op names, error texts);
// anything longer is corruption, not data.
const maxWireString = 1 << 12

// ---- encode ----

func appendU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }
func appendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }
func appendI64(dst []byte, v int64) []byte  { return appendU64(dst, uint64(v)) }
func appendF64(dst []byte, v float64) []byte {
	return appendU64(dst, math.Float64bits(v))
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendString(dst []byte, s string) []byte {
	dst = appendU32(dst, uint32(len(s)))
	return append(dst, s...)
}

func appendI64s(dst []byte, v []int64) []byte {
	if v == nil {
		return appendU32(dst, nilSlice)
	}
	dst = appendU32(dst, uint32(len(v)))
	for _, x := range v {
		dst = appendI64(dst, x)
	}
	return dst
}

func appendInts(dst []byte, v []int) []byte {
	if v == nil {
		return appendU32(dst, nilSlice)
	}
	dst = appendU32(dst, uint32(len(v)))
	for _, x := range v {
		dst = appendI64(dst, int64(x))
	}
	return dst
}

// ---- decode ----

// wdec is a bounds-checked little-endian cursor with a sticky error:
// after the first failure every read returns the zero value, so decoders
// read straight through and check err once.
type wdec struct {
	b   []byte
	err error
}

func (d *wdec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrWireCodec, fmt.Sprintf(format, args...))
	}
}

func (d *wdec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.b) {
		d.fail("need %d bytes, have %d", n, len(d.b))
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *wdec) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *wdec) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *wdec) i64() int64     { return int64(d.u64()) }
func (d *wdec) intv() int      { return int(d.i64()) }
func (d *wdec) f64() float64   { return math.Float64frombits(d.u64()) }
func (d *wdec) rounds() Rounds { return Rounds{Total: d.i64(), Build: d.i64(), Query: d.i64()} }

func (d *wdec) bool1() bool {
	b := d.take(1)
	if b == nil {
		return false
	}
	if b[0] > 1 {
		d.fail("bool byte 0x%02x", b[0])
		return false
	}
	return b[0] == 1
}

func (d *wdec) str() string {
	n := d.u32()
	if d.err != nil {
		return ""
	}
	if n > maxWireString {
		d.fail("string length %d exceeds cap %d", n, maxWireString)
		return ""
	}
	return string(d.take(int(n)))
}

func (d *wdec) i64s() []int64 {
	n := d.u32()
	if d.err != nil || n == nilSlice {
		return nil
	}
	// The elements are 8 bytes each: the count can never exceed the
	// remaining input, so allocation is capped by what was actually sent.
	if int64(n)*8 > int64(len(d.b)) {
		d.fail("slice count %d exceeds remaining %d bytes", n, len(d.b))
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = d.i64()
	}
	return out
}

func (d *wdec) ints() []int {
	n := d.u32()
	if d.err != nil || n == nilSlice {
		return nil
	}
	if int64(n)*8 > int64(len(d.b)) {
		d.fail("slice count %d exceeds remaining %d bytes", n, len(d.b))
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = d.intv()
	}
	return out
}

// done rejects trailing bytes, the codec's analogue of DecodeQuery's
// trailing-data check.
func (d *wdec) done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrWireCodec, len(d.b))
	}
	return nil
}

// ---- QueryRequest ----

func appendWireQueryRequest(dst []byte, r *QueryRequest) []byte {
	dst = appendString(dst, r.Graph)
	dst = appendString(dst, r.Op)
	dst = appendI64(dst, int64(r.U))
	dst = appendI64(dst, int64(r.V))
	dst = appendI64(dst, int64(r.Source))
	dst = appendF64(dst, r.Eps)
	return appendBool(dst, r.Simulated)
}

// decodeWireQueryRequest decodes and validates with exactly
// DecodeQuery's checks (graph present, known op, argument ranges), so a
// request rejected on one plane is rejected on the other.
func decodeWireQueryRequest(b []byte) (*QueryRequest, error) {
	d := &wdec{b: b}
	r := &QueryRequest{
		Graph: d.str(), Op: d.str(),
		U: d.intv(), V: d.intv(), Source: d.intv(),
		Eps: d.f64(), Simulated: d.bool1(),
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	if r.Graph == "" {
		return nil, errors.New("flowd: bad query: missing graph id")
	}
	if err := checkArgs(r.Op, r.U, r.V, r.Source, r.Eps); err != nil {
		return nil, fmt.Errorf("flowd: bad query: %s", err)
	}
	return r, nil
}

// ---- QueryResponse ----

func appendWireQueryResponse(dst []byte, r *QueryResponse) []byte {
	dst = appendString(dst, r.Graph)
	dst = appendString(dst, r.Op)
	dst = appendI64(dst, r.Value)
	dst = appendI64s(dst, r.Dist)
	dst = appendInts(dst, r.CutEdges)
	dst = appendBool(dst, r.NegCycle)
	dst = appendI64(dst, int64(r.Iterations))
	dst = appendBool(dst, r.Hit)
	dst = appendI64(dst, r.Rounds.Total)
	dst = appendI64(dst, r.Rounds.Build)
	dst = appendI64(dst, r.Rounds.Query)
	return appendF64(dst, r.WallMS)
}

func decodeWireQueryResponse(b []byte) (*QueryResponse, error) {
	d := &wdec{b: b}
	r := &QueryResponse{
		Graph: d.str(), Op: d.str(), Value: d.i64(),
		Dist: d.i64s(), CutEdges: d.ints(),
		NegCycle: d.bool1(), Iterations: d.intv(), Hit: d.bool1(),
		Rounds: d.rounds(), WallMS: d.f64(),
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return r, nil
}

// ---- BatchRequest ----

func appendWireBatchRequest(dst []byte, r *BatchRequest) []byte {
	dst = appendString(dst, r.Graph)
	dst = appendI64(dst, int64(r.Workers))
	dst = appendU32(dst, uint32(len(r.Queries)))
	for i := range r.Queries {
		q := &r.Queries[i]
		dst = appendString(dst, q.Op)
		dst = appendI64(dst, int64(q.U))
		dst = appendI64(dst, int64(q.V))
		dst = appendI64(dst, int64(q.Source))
		dst = appendF64(dst, q.Eps)
		dst = appendBool(dst, q.Simulated)
	}
	return dst
}

// decodeWireBatchRequest applies DecodeBatch's validation set: graph
// present, batch size in (0, MaxBatchQueries], workers in range, every
// entry's arguments checked.
func decodeWireBatchRequest(b []byte) (*BatchRequest, error) {
	d := &wdec{b: b}
	r := &BatchRequest{Graph: d.str(), Workers: d.intv()}
	n := d.u32()
	if d.err != nil {
		return nil, d.err
	}
	if n == 0 {
		return nil, errors.New("flowd: bad batch: empty query list")
	}
	if n > MaxBatchQueries {
		return nil, fmt.Errorf("flowd: bad batch: %d queries exceeds cap %d", n, MaxBatchQueries)
	}
	r.Queries = make([]BatchQuery, n)
	for i := range r.Queries {
		q := &r.Queries[i]
		q.Op = d.str()
		q.U, q.V, q.Source = d.intv(), d.intv(), d.intv()
		q.Eps, q.Simulated = d.f64(), d.bool1()
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	if r.Graph == "" {
		return nil, errors.New("flowd: bad batch: missing graph id")
	}
	if r.Workers < 0 || r.Workers > MaxBatchWorkers {
		return nil, fmt.Errorf("flowd: bad batch: workers=%d out of [0, %d]", r.Workers, MaxBatchWorkers)
	}
	for i := range r.Queries {
		q := &r.Queries[i]
		if err := checkArgs(q.Op, q.U, q.V, q.Source, q.Eps); err != nil {
			return nil, fmt.Errorf("flowd: bad batch: query %d: %s", i, err)
		}
	}
	return r, nil
}

// ---- BatchResponse ----

func appendWireBatchResponse(dst []byte, r *BatchResponse) []byte {
	dst = appendString(dst, r.Graph)
	dst = appendBool(dst, r.Hit)
	dst = appendF64(dst, r.WallMS)
	dst = appendU32(dst, uint32(len(r.Results)))
	for i := range r.Results {
		e := &r.Results[i]
		dst = appendString(dst, e.Op)
		dst = appendI64(dst, e.Value)
		dst = appendI64s(dst, e.Dist)
		dst = appendInts(dst, e.CutEdges)
		dst = appendBool(dst, e.NegCycle)
		dst = appendI64(dst, int64(e.Iterations))
		dst = appendI64(dst, e.Rounds.Total)
		dst = appendI64(dst, e.Rounds.Build)
		dst = appendI64(dst, e.Rounds.Query)
		dst = appendString(dst, e.Error)
	}
	return dst
}

func decodeWireBatchResponse(b []byte) (*BatchResponse, error) {
	d := &wdec{b: b}
	r := &BatchResponse{Graph: d.str(), Hit: d.bool1(), WallMS: d.f64()}
	n := d.u32()
	if d.err != nil {
		return nil, d.err
	}
	if n > MaxBatchQueries {
		return nil, fmt.Errorf("flowd: bad batch response: %d results exceeds cap %d", n, MaxBatchQueries)
	}
	r.Results = make([]BatchResult, n)
	for i := range r.Results {
		e := &r.Results[i]
		e.Op = d.str()
		e.Value = d.i64()
		e.Dist = d.i64s()
		e.CutEdges = d.ints()
		e.NegCycle = d.bool1()
		e.Iterations = d.intv()
		e.Rounds = d.rounds()
		e.Error = d.str()
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return r, nil
}
