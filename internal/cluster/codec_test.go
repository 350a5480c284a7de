package cluster

// codec_test.go checks every wire message round-trips exactly, frames
// survive the transport layer, and no crafted byte sequence can panic or
// over-allocate the decoders (fuzz).

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"stpq"
)

func TestQueryRoundTrip(t *testing.T) {
	q := WireQuery{
		K:          8,
		Radius:     0.0625,
		Lambda:     0.5,
		Variant:    2,
		Algorithm:  1,
		Similarity: 3,
		RequestID:  "req-0123456789abcdef",
		Trace:      true,
		Mode:       wireModeApprox,
		Recall:     0.9,
		Sets: []WireKeywords{
			{Name: "cafes", Words: []string{"espresso", "latte"}},
			{Name: "food", Words: []string{"pizza"}},
		},
	}
	got, err := decodeQuery(encodeQuery(q))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, q) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, q)
	}
	// Zero-value query round-trips too (empty keyword sets stay nil).
	got, err = decodeQuery(encodeQuery(WireQuery{}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, WireQuery{}) {
		t.Fatalf("zero round trip: %+v", got)
	}
}

func TestReplyRoundTrips(t *testing.T) {
	qr := QueryReply{
		Results: []stpq.Result{
			{ID: 3, X: 0.1, Y: 0.2, Score: 0.95},
			{ID: -7, X: -1, Y: 2, Score: 0.95},
		},
		Stats: stpq.Stats{
			CPUTime: 1200, IOTime: 3400, LogicalReads: 56, PhysicalReads: 7,
			Combinations: 8, FeaturesPulled: 9, ObjectsScored: 10,
			ShardFanout: 3, ShardPruned: 1,
			ApproxCandidates: 11, ApproxPruned: 12, ApproxSkippedReads: 13,
		},
		Generation: 4,
		Cached:     true,
		TraceJSON:  []byte(`{"name":"query"}`),
	}
	gotQR, err := decodeQueryReply(encodeQueryReply(qr))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotQR, qr) {
		t.Fatalf("query reply:\n got %+v\nwant %+v", gotQR, qr)
	}

	sreq := SegmentRequest{From: 17}
	gotSReq, err := decodeSegmentRequest(encodeSegmentRequest(sreq))
	if err != nil {
		t.Fatal(err)
	}
	if gotSReq != sreq {
		t.Fatalf("segment request: got %+v want %+v", gotSReq, sreq)
	}

	sr := SegmentReply{FirstSeq: 9, Data: []byte{1, 2, 3, 0, 255}}
	gotSR, err := decodeSegmentReply(encodeSegmentReply(sr))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotSR, sr) {
		t.Fatalf("segment reply: got %+v want %+v", gotSR, sr)
	}

	hr := HealthReply{AppliedSeq: 10, Objects: 1234, Generation: 5}
	gotHR, err := decodeHealthReply(encodeHealthReply(hr))
	if err != nil {
		t.Fatal(err)
	}
	if gotHR != hr {
		t.Fatalf("health reply: got %+v want %+v", gotHR, hr)
	}
}

func TestErrorRoundTrip(t *testing.T) {
	err := decodeError(encodeError(errOverloaded, "queue full"))
	var rpc *RPCError
	if !errors.As(err, &rpc) {
		t.Fatalf("decodeError returned %T", err)
	}
	if rpc.Code != errOverloaded || rpc.Msg != "queue full" {
		t.Fatalf("got %+v", rpc)
	}
	if !rpc.Retryable() {
		t.Fatal("overloaded must be retryable")
	}
	if (&RPCError{Code: errInvalid}).Retryable() {
		t.Fatal("invalid must not be retryable")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello cluster")
	if err := writeFrame(&buf, msgQuery, payload); err != nil {
		t.Fatal(err)
	}
	typ, got, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != msgQuery || !bytes.Equal(got, payload) {
		t.Fatalf("got type 0x%02x payload %q", typ, got)
	}
	// Oversized frame header must be rejected before any allocation.
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0x01}
	if _, _, err := readFrame(bytes.NewReader(huge)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversize frame: %v", err)
	}
}

// TestDecodeQueryTruncated checks every proper prefix of a valid encoding
// fails cleanly instead of panicking or returning garbage silently.
func TestDecodeQueryTruncated(t *testing.T) {
	full := encodeQuery(WireQuery{
		K: 8, Radius: 0.06, Lambda: 0.5, RequestID: "req-1",
		Sets: []WireKeywords{{Name: "food", Words: []string{"pizza", "sushi"}}},
	})
	for n := 0; n < len(full); n++ {
		if _, err := decodeQuery(full[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded successfully", n, len(full))
		}
	}
}

func FuzzDecodeQuery(f *testing.F) {
	f.Add(encodeQuery(WireQuery{K: 8, Radius: 0.06}))
	f.Add(encodeQuery(WireQuery{
		K: 3, RequestID: "req-x", Trace: true,
		Sets: []WireKeywords{{Name: "a", Words: []string{"b"}}},
	}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := decodeQuery(data)
		if err != nil {
			return
		}
		// Whatever decodes must re-encode and decode to the same bytes
		// (bytes, not values: NaN floats are never DeepEqual).
		enc1 := encodeQuery(q)
		again, err := decodeQuery(enc1)
		if err != nil {
			t.Fatalf("re-decode of valid query failed: %v", err)
		}
		if !bytes.Equal(encodeQuery(again), enc1) {
			t.Fatalf("re-encode changed the query:\n got %+v\nwant %+v", again, q)
		}
	})
}

func FuzzDecodeQueryReply(f *testing.F) {
	f.Add(encodeQueryReply(QueryReply{
		Results: []stpq.Result{{ID: 1, Score: 0.5}},
		Stats:   stpq.Stats{CPUTime: 10},
	}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := decodeQueryReply(data)
		if err != nil {
			return
		}
		enc1 := encodeQueryReply(r)
		again, err := decodeQueryReply(enc1)
		if err != nil {
			t.Fatalf("re-decode of valid reply failed: %v", err)
		}
		if !bytes.Equal(encodeQueryReply(again), enc1) {
			t.Fatalf("re-encode changed the reply:\n got %+v\nwant %+v", again, r)
		}
	})
}

func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	_ = writeFrame(&buf, msgQuery, []byte("payload"))
	f.Add(buf.Bytes())
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0x01, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A frame that reads back must round-trip through writeFrame.
		var out bytes.Buffer
		if err := writeFrame(&out, typ, payload); err != nil {
			t.Fatalf("re-write of read frame failed: %v", err)
		}
		typ2, payload2, err := readFrame(&out)
		if err != nil || typ2 != typ || !bytes.Equal(payload2, payload) {
			t.Fatalf("frame round trip mismatch: %v", err)
		}
	})
}
