package codec

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

var errTest = errors.New("test: bad input")

// TestRoundTrip: every Append function appends what the same-named Reader
// method reads back, and Done accepts the exact end.
func TestRoundTrip(t *testing.T) {
	w := AppendU32([]byte{7}, 1<<30)
	w = AppendU64(w, 1<<60)
	w = AppendUvarint(w, 300)
	w = AppendVarint(w, -5)
	w = AppendBool(AppendBool(w, true), false)
	w = AppendString(w, "graph")
	w = AppendUvarint(w, 2)
	d := NewReader(w, errTest)
	if d.U8() != 7 || d.U32() != 1<<30 || d.U64() != 1<<60 || d.Uvarint() != 300 || d.Varint() != -5 ||
		!d.Bool() || d.Bool() || d.String(5) != "graph" || d.ID(3) != 2 {
		t.Fatal("fields do not read back")
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestFirstFailureSticks: after a failure the cursor is empty, every read
// is the zero value, and each later failure — a read's or the caller's —
// reports the first.
func TestFirstFailureSticks(t *testing.T) {
	d := NewReader([]byte{2, 1, 1, 1, 1}, errTest)
	if d.Bool() {
		t.Fatal("bool byte 2 read as true")
	}
	first := d.Err()
	if !errors.Is(first, errTest) || !strings.Contains(first.Error(), "bool byte 0x02") {
		t.Fatalf("got %v", first)
	}
	if d.U32() != 0 || d.Remaining() != 0 {
		t.Fatal("a read after the failure returned input")
	}
	if d.Failf("later defect") != first || d.Done() != first {
		t.Fatal("a later failure replaced the first")
	}
}

// TestBounds: each way a read can overrun or overclaim fails with the
// sentinel.
func TestBounds(t *testing.T) {
	long := AppendString(nil, "abcdef")
	cases := map[string]func(d *Reader){
		"short":    func(d *Reader) { d.U64() },
		"uvarint":  func(d *Reader) { d.Uvarint() },
		"string":   func(d *Reader) { d.String(5) },
		"count":    func(d *Reader) { d.Count(3, 4) },
		"id":       func(d *Reader) { d.ID(1) },
		"trailing": func(d *Reader) { d.U8() },
	}
	inputs := map[string][]byte{
		"short": {1, 2, 3}, "uvarint": {0x80}, "string": long, "count": make([]byte, 11),
		"id": {1}, "trailing": {1, 2},
	}
	for name, read := range cases {
		d := NewReader(inputs[name], errTest)
		read(&d)
		if err := d.Done(); !errors.Is(err, errTest) {
			t.Errorf("%s: got %v, want the sentinel", name, err)
		}
	}
	if d := NewReader(make([]byte, 12), errTest); d.Count(3, 4) != 3 || d.Err() != nil {
		t.Error("a count that fits was refused")
	}
}

// TestReadFull: a stream that ends inside p is the truncation sentinel,
// whether or not any byte arrived; other errors pass through.
func TestReadFull(t *testing.T) {
	p := make([]byte, 4)
	for _, in := range []string{"", "ab"} {
		if err := ReadFull(strings.NewReader(in), p, errTest); !errors.Is(err, errTest) {
			t.Errorf("%q: got %v, want the sentinel", in, err)
		}
	}
	if err := ReadFull(bytes.NewReader([]byte("abcd")), p, errTest); err != nil || string(p) != "abcd" {
		t.Errorf("full read: %v %q", err, p)
	}
	if err := Truncated(io.ErrClosedPipe, errTest); err != io.ErrClosedPipe {
		t.Errorf("non-EOF error mapped: %v", err)
	}
}
