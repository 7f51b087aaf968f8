package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"planarflow/internal/obs"
)

func mustFrame(t testing.TB, kind uint8, id uint64, payload []byte) []byte {
	t.Helper()
	return mustTracedFrame(t, kind, id, obs.TraceContext{}, payload)
}

func mustTracedFrame(t testing.TB, kind uint8, id uint64, tc obs.TraceContext, payload []byte) []byte {
	t.Helper()
	b, err := AppendFrame(nil, kind, id, tc, payload)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFrameRoundTrip(t *testing.T) {
	traced := obs.TraceContext{Hi: 0x0123456789abcdef, Lo: 0xfedcba9876543210, Parent: 0x1122334455667788, Hop: 2}
	cases := []struct {
		kind    uint8
		id      uint64
		trace   obs.TraceContext
		payload string
	}{
		{uint8(OpQuery), 1, obs.TraceContext{}, `{"graph":"g","op":"dist","u":0,"v":5}`},
		{uint8(OpBatchB), 1<<64 - 1, traced, "\x01g\x01\x00"},
		{uint8(OpQueryB), 2, traced, ""},
		{uint8(OpPing), 0, obs.TraceContext{}, ""},
		{respBit | uint8(StatusOK), 7, obs.TraceContext{}, `{"value":42}`},
		{respBit | uint8(StatusNotFound), 9, obs.TraceContext{}, `{"error":"unknown graph"}`},
	}
	for _, c := range cases {
		enc := mustTracedFrame(t, c.kind, c.id, c.trace, []byte(c.payload))
		if want := HeaderLen + traceLen + len(c.payload) + crcLen; len(enc) != want || want != 45+len(c.payload) {
			t.Fatalf("kind 0x%02x: encoded %d bytes, want %d", c.kind, len(enc), want)
		}

		// Slice decode.
		f, n, err := DecodeFrame(enc)
		if err != nil {
			t.Fatalf("kind 0x%02x: %v", c.kind, err)
		}
		if n != len(enc) {
			t.Fatalf("consumed %d of %d", n, len(enc))
		}
		if f.Kind != c.kind || f.ID != c.id || f.Trace != c.trace || string(f.Payload) != c.payload {
			t.Fatalf("decoded %+v, want kind=0x%02x id=%d trace=%v payload=%q", f, c.kind, c.id, c.trace, c.payload)
		}

		// Stream decode.
		sf, err := ReadFrame(bufio.NewReader(bytes.NewReader(enc)))
		if err != nil {
			t.Fatal(err)
		}
		if sf.Kind != f.Kind || sf.ID != f.ID || sf.Trace != f.Trace || !bytes.Equal(sf.Payload, f.Payload) {
			t.Fatalf("stream decode diverged: %+v vs %+v", sf, f)
		}
	}
}

func TestFrameKindAccessors(t *testing.T) {
	req := Frame{Kind: uint8(OpBatchB)}
	if req.IsResponse() || req.Op() != OpBatchB {
		t.Fatalf("request accessors wrong: %+v", req)
	}
	resp := Frame{Kind: respBit | uint8(StatusCanceled)}
	if !resp.IsResponse() || resp.Status() != StatusCanceled {
		t.Fatalf("response accessors wrong: %+v", resp)
	}
	if got := StatusCanceled.String(); got != "canceled" {
		t.Fatalf("Status.String() = %q", got)
	}
}

func TestDecodeFrameConsecutive(t *testing.T) {
	buf := mustFrame(t, uint8(OpQuery), 1, []byte("one"))
	buf = append(buf, mustFrame(t, uint8(OpQuery), 2, []byte("two"))...)
	f1, n1, err := DecodeFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	f2, n2, err := DecodeFrame(buf[n1:])
	if err != nil {
		t.Fatal(err)
	}
	if n1+n2 != len(buf) || f1.ID != 1 || f2.ID != 2 || string(f2.Payload) != "two" {
		t.Fatalf("back-to-back decode broken: %+v %+v", f1, f2)
	}
}

func TestFrameErrors(t *testing.T) {
	valid := mustFrame(t, uint8(OpQuery), 5, []byte(`{"op":"dist"}`))

	corrupt := func(mut func(b []byte)) []byte {
		b := append([]byte(nil), valid...)
		mut(b)
		return b
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short-header", valid[:HeaderLen-1], ErrTruncated},
		{"short-body", valid[:len(valid)-1], ErrTruncated},
		{"bad-magic", corrupt(func(b []byte) { b[0] = 'X' }), ErrBadMagic},
		{"future-version", corrupt(func(b []byte) { b[2] = Version + 1 }), ErrVersion},
		{"short-trace", valid[:HeaderLen+traceLen/2], ErrTruncated},
		{"flipped-trace", corrupt(func(b []byte) { b[HeaderLen+4] ^= 0x20 }), ErrChecksum},
		{"zero-kind", corrupt(func(b []byte) { b[3] = 0 }), ErrBadKind},
		{"huge-kind", corrupt(func(b []byte) { b[3] = 0x7f }), ErrBadKind},
		{"bad-status", corrupt(func(b []byte) { b[3] = respBit | 0x3f }), ErrBadKind},
		{"oversize", corrupt(func(b []byte) { b[12], b[13], b[14], b[15] = 0xff, 0xff, 0xff, 0xff }), ErrOversize},
		{"flipped-payload", corrupt(func(b []byte) { b[HeaderLen+traceLen] ^= 0xff }), ErrChecksum},
		{"flipped-crc", corrupt(func(b []byte) { b[len(b)-1] ^= 0x01 }), ErrChecksum},
	}
	for _, c := range cases {
		if _, _, err := DecodeFrame(c.data); !errors.Is(err, c.want) {
			t.Errorf("%s: DecodeFrame err = %v, want %v", c.name, err, c.want)
		}
		f, err := ReadFrame(bufio.NewReader(bytes.NewReader(c.data)))
		want := c.want
		if len(c.data) == 0 {
			want = io.EOF // clean stream end, not a truncation
		}
		if !errors.Is(err, want) {
			t.Errorf("%s: ReadFrame err = %v (frame %+v), want %v", c.name, err, f, want)
		}
	}
}

func TestAppendFrameOversizePayload(t *testing.T) {
	if _, err := AppendFrame(nil, uint8(OpQuery), 1, obs.TraceContext{}, make([]byte, MaxPayload+1)); !errors.Is(err, ErrOversize) {
		t.Fatalf("err = %v, want ErrOversize", err)
	}
	// Exactly at the cap is legal.
	b := mustFrame(t, uint8(OpQuery), 1, make([]byte, MaxPayload))
	if _, _, err := DecodeFrame(b); err != nil {
		t.Fatal(err)
	}
}

// TestReadFrameDoesNotOverAllocate pins the allocation-capping contract:
// a header declaring a huge-but-legal payload against a short stream
// must fail with ErrTruncated after at most MaxPayload of buffer, and an
// oversized declaration must fail before allocating anything.
func TestReadFrameDoesNotOverAllocate(t *testing.T) {
	hdr := mustFrame(t, uint8(OpQuery), 1, nil)[:HeaderLen]
	hdr[12], hdr[13] = 0xff, 0xff // declare 64 KiB-ish, deliver none
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(hdr))); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	// Oversized length prefix on an infinite stream: rejected from the
	// header alone.
	big := append([]byte(nil), hdr...)
	big[12], big[13], big[14], big[15] = 0, 0, 0xff, 0xff
	r := bufio.NewReader(io.MultiReader(bytes.NewReader(big), neverEnding{}))
	if _, err := ReadFrame(r); !errors.Is(err, ErrOversize) {
		t.Fatalf("err = %v, want ErrOversize", err)
	}
}

type neverEnding struct{}

func (neverEnding) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'z'
	}
	return len(p), nil
}

func TestReadFrameStreamSequence(t *testing.T) {
	var stream []byte
	payloads := []string{"a", strings.Repeat("b", 1000), ""}
	for i, p := range payloads {
		stream = append(stream, mustFrame(t, uint8(OpQuery), uint64(i), []byte(p))...)
	}
	br := bufio.NewReader(bytes.NewReader(stream))
	for i, p := range payloads {
		f, err := ReadFrame(br)
		if err != nil {
			t.Fatal(err)
		}
		if f.ID != uint64(i) || string(f.Payload) != p {
			t.Fatalf("frame %d: %+v", i, f)
		}
	}
	if _, err := ReadFrame(br); !errors.Is(err, io.EOF) {
		t.Fatalf("stream end err = %v, want io.EOF", err)
	}
}
