package flowd

// The compact binary payload codec for the wire transport's hot ops
// (wire.OpQueryB / wire.OpBatchB): the same QueryRequest/QueryResponse
// and BatchRequest/BatchResponse values the HTTP plane carries as JSON,
// hand-encoded little-endian with length-prefixed strings and slices.
// JSON reflection is the dominant per-query cost once the decode engine
// answers in microseconds — this codec removes it from the serving path
// (the planarflow package's TestEveryRouteAgrees pins that a
// binary-routed answer carries exactly the HTTP route's payload, rounds
// and hit bit). WireClient sends nothing else; wire.OpQuery, the one JSON
// op left, has no client in this repo.
//
// Every field is read through internal/codec's bounds-checked cursor, the
// one the PFSNAP section codecs use: decoders never panic, fail with
// errors wrapping ErrWireCodec, validate counts against the remaining
// input before allocating, and reject trailing bytes. What is this
// codec's own is its format: field order, little-endian 8-byte integers
// and floats, u32 counts with a nil-slice marker, and the string cap.

import (
	"errors"
	"fmt"
	"math"

	"planarflow/internal/codec"
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

func appendI64s(dst []byte, v []int64) []byte {
	if v == nil {
		return codec.AppendU32(dst, nilSlice)
	}
	dst = codec.AppendU32(dst, uint32(len(v)))
	for _, x := range v {
		dst = codec.AppendU64(dst, uint64(x))
	}
	return dst
}

func appendInts(dst []byte, v []int) []byte {
	if v == nil {
		return codec.AppendU32(dst, nilSlice)
	}
	dst = codec.AppendU32(dst, uint32(len(v)))
	for _, x := range v {
		dst = codec.AppendU64(dst, uint64(x))
	}
	return dst
}

func appendRounds(dst []byte, r Rounds) []byte {
	dst = codec.AppendU64(dst, uint64(r.Total))
	dst = codec.AppendU64(dst, uint64(r.Build))
	return codec.AppendU64(dst, uint64(r.Query))
}

func appendF64(dst []byte, v float64) []byte { return codec.AppendU64(dst, math.Float64bits(v)) }

func readStr(d *codec.Reader) string  { return d.String(maxWireString) }
func readI64(d *codec.Reader) int64   { return int64(d.U64()) }
func readInt(d *codec.Reader) int     { return int(int64(d.U64())) }
func readF64(d *codec.Reader) float64 { return math.Float64frombits(d.U64()) }
func readRounds(d *codec.Reader) Rounds {
	return Rounds{Total: readI64(d), Build: readI64(d), Query: readI64(d)}
}

// readI64s and readInts read a u32 count (or the nil marker) and that many
// 8-byte elements, which must be in the bytes still unread.
func readI64s(d *codec.Reader) []int64 {
	n := d.U32()
	if n == nilSlice {
		return nil
	}
	out := make([]int64, d.Count(uint64(n), 8))
	for i := range out {
		out[i] = readI64(d)
	}
	return out
}

func readInts(d *codec.Reader) []int {
	n := d.U32()
	if n == nilSlice {
		return nil
	}
	out := make([]int, d.Count(uint64(n), 8))
	for i := range out {
		out[i] = readInt(d)
	}
	return out
}

// ---- QueryRequest ----

func appendWireQueryRequest(dst []byte, r *QueryRequest) []byte {
	dst = codec.AppendString(dst, r.Graph)
	dst = codec.AppendString(dst, r.Op)
	dst = codec.AppendU64(dst, uint64(r.U))
	dst = codec.AppendU64(dst, uint64(r.V))
	dst = codec.AppendU64(dst, uint64(r.Source))
	dst = appendF64(dst, r.Eps)
	return dst
}

// decodeWireQueryRequest decodes and applies QueryRequest.check, the
// rule DecodeQuery applies, so a request rejected on one plane is
// rejected on the other.
func decodeWireQueryRequest(b []byte) (*QueryRequest, error) {
	d := codec.NewReader(b, ErrWireCodec)
	r := &QueryRequest{
		Graph: readStr(&d), Op: readStr(&d),
		U: readInt(&d), V: readInt(&d), Source: readInt(&d),
		Eps: readF64(&d),
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	if err := r.check(); err != nil {
		return nil, err
	}
	return r, nil
}

// ---- QueryResponse ----

func appendWireQueryResponse(dst []byte, r *QueryResponse) []byte {
	dst = codec.AppendString(dst, r.Graph)
	dst = codec.AppendString(dst, r.Op)
	dst = codec.AppendU64(dst, uint64(r.Value))
	dst = appendI64s(dst, r.Dist)
	dst = appendInts(dst, r.CutEdges)
	dst = codec.AppendBool(dst, r.NegCycle)
	dst = codec.AppendU64(dst, uint64(r.Iterations))
	dst = codec.AppendBool(dst, r.Hit)
	dst = appendRounds(dst, r.Rounds)
	dst = appendF64(dst, r.WallMS)
	return dst
}

func decodeWireQueryResponse(b []byte) (*QueryResponse, error) {
	d := codec.NewReader(b, ErrWireCodec)
	r := &QueryResponse{
		Graph: readStr(&d), Op: readStr(&d), Value: readI64(&d),
		Dist: readI64s(&d), CutEdges: readInts(&d),
		NegCycle: d.Bool(), Iterations: readInt(&d), Hit: d.Bool(),
		Rounds: readRounds(&d), WallMS: readF64(&d),
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return r, nil
}

// ---- BatchRequest ----

func appendWireBatchRequest(dst []byte, r *BatchRequest) []byte {
	dst = codec.AppendString(dst, r.Graph)
	dst = codec.AppendU64(dst, uint64(r.Workers))
	dst = codec.AppendU32(dst, uint32(len(r.Queries)))
	for i := range r.Queries {
		q := &r.Queries[i]
		dst = codec.AppendString(dst, q.Op)
		dst = codec.AppendU64(dst, uint64(q.U))
		dst = codec.AppendU64(dst, uint64(q.V))
		dst = codec.AppendU64(dst, uint64(q.Source))
		dst = appendF64(dst, q.Eps)
	}
	return dst
}

// decodeWireBatchRequest decodes and applies BatchRequest.check, the
// rule DecodeBatch applies. The entry-count cap it tests first only bounds
// the allocation of untrusted input.
func decodeWireBatchRequest(b []byte) (*BatchRequest, error) {
	d := codec.NewReader(b, ErrWireCodec)
	r := &BatchRequest{Graph: readStr(&d), Workers: readInt(&d)}
	n := d.U32()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n > MaxBatchQueries {
		return nil, fmt.Errorf("flowd: bad batch: %d queries exceeds cap %d", n, MaxBatchQueries)
	}
	r.Queries = make([]BatchQuery, n)
	for i := range r.Queries {
		q := &r.Queries[i]
		q.Op = readStr(&d)
		q.U, q.V, q.Source = readInt(&d), readInt(&d), readInt(&d)
		q.Eps = readF64(&d)
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	if err := r.check(); err != nil {
		return nil, err
	}
	return r, nil
}

// ---- BatchResponse ----

func appendWireBatchResponse(dst []byte, r *BatchResponse) []byte {
	dst = codec.AppendString(dst, r.Graph)
	dst = codec.AppendBool(dst, r.Hit)
	dst = appendF64(dst, r.WallMS)
	dst = codec.AppendU32(dst, uint32(len(r.Results)))
	for i := range r.Results {
		e := &r.Results[i]
		dst = codec.AppendString(dst, e.Op)
		dst = codec.AppendU64(dst, uint64(e.Value))
		dst = appendI64s(dst, e.Dist)
		dst = appendInts(dst, e.CutEdges)
		dst = codec.AppendBool(dst, e.NegCycle)
		dst = codec.AppendU64(dst, uint64(e.Iterations))
		dst = appendRounds(dst, e.Rounds)
		dst = codec.AppendString(dst, e.Error)
	}
	return dst
}

func decodeWireBatchResponse(b []byte) (*BatchResponse, error) {
	d := codec.NewReader(b, ErrWireCodec)
	r := &BatchResponse{Graph: readStr(&d), Hit: d.Bool(), WallMS: readF64(&d)}
	n := d.U32()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n > MaxBatchQueries {
		return nil, fmt.Errorf("flowd: bad batch response: %d results exceeds cap %d", n, MaxBatchQueries)
	}
	r.Results = make([]BatchResult, n)
	for i := range r.Results {
		e := &r.Results[i]
		e.Op = readStr(&d)
		e.Value = readI64(&d)
		e.Dist = readI64s(&d)
		e.CutEdges = readInts(&d)
		e.NegCycle = d.Bool()
		e.Iterations = readInt(&d)
		e.Rounds = readRounds(&d)
		e.Error = readStr(&d)
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return r, nil
}
