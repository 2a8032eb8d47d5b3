package rpc

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// marshalledResponse is the reply payload as json.Marshal(response{…})
// produces it, the encoding responseParts must reproduce byte for byte.
func marshalledResponse(t *testing.T, result any, herr error) []byte {
	t.Helper()
	var resp response
	if herr != nil {
		resp.Error = herr.Error()
	} else if result != nil {
		raw, err := json.Marshal(result)
		if err != nil {
			resp.Error = "rpc: encoding result: " + err.Error()
		} else {
			resp.Result = raw
		}
	}
	out, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestResponsePartsMatchMarshal(t *testing.T) {
	bulk := make([]byte, 30<<10)
	for i := range bulk {
		bulk[i] = byte(i * 7)
	}
	var nilPtr *struct{ A int }
	cases := []struct {
		name   string
		result any
		herr   error
	}{
		{"bulk bytes", struct{ Data []byte }{bulk}, nil},
		{"html and line separators", "<script>&amp;</script>\u2028\u2029", nil},
		{"map", map[string]any{"k<": []int{1, 2}, "&": nil}, nil},
		{"typed nil", nilPtr, nil},
		{"empty slice", []string{}, nil},
		{"empty result", nil, nil},
		{"handler error", "ignored", errors.New(`bad "round" <7> & more`)},
		{"unencodable result", make(chan int), nil},
	}
	for _, tc := range cases {
		parts, err := responseParts(tc.result, tc.herr)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := bytes.Join(parts, nil)
		if want := marshalledResponse(t, tc.result, tc.herr); !bytes.Equal(got, want) {
			t.Errorf("%s: spliced %q, json.Marshal %q", tc.name, got, want)
		}
	}
}

// referenceDecode is the reply decode through response and json.Unmarshal.
func referenceDecode(payload []byte, result any) error {
	var resp response
	if err := json.Unmarshal(payload, &resp); err != nil {
		return err
	}
	if resp.Error != "" {
		return errors.New(resp.Error)
	}
	if result != nil && len(resp.Result) > 0 {
		return json.Unmarshal(resp.Result, result)
	}
	return nil
}

// FuzzResponseEnvelope checks that decodeResponse's sliced fast path
// agrees with referenceDecode on arbitrary frames: same error text, same
// decoded value, for a generic and a typed result.
func FuzzResponseEnvelope(f *testing.F) {
	for _, seed := range []string{
		`{"result":"AAEC"}`,
		`{"result": {"Data":"AAEC","N":3} }`,
		`{"result":null}`,
		`{"result":1,"error":"boom"}`,
		`{"error":"boom"}`,
		`{"result":}`,
		`{"result":{"N":"x"}}`,
		`{"Result":[1,2]}`,
		`{}`,
		`{"result":" <>&"}`,
	} {
		f.Add([]byte(seed))
	}
	type typed struct {
		Data []byte
		N    int
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		check := func(newTarget func() any) {
			got, want := newTarget(), newTarget()
			errGot := decodeResponse(payload, got)
			errWant := referenceDecode(payload, want)
			if fmt.Sprint(errGot) != fmt.Sprint(errWant) {
				t.Fatalf("frame %q: error %v, json.Unmarshal path %v", payload, errGot, errWant)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("frame %q: decoded %#v, json.Unmarshal path %#v", payload, got, want)
			}
		}
		check(func() any { return new(any) })
		check(func() any { return new(typed) })
		if fmt.Sprint(decodeResponse(payload, nil)) != fmt.Sprint(referenceDecode(payload, nil)) {
			t.Fatalf("frame %q: nil-result decode disagrees", payload)
		}
	})
}

// BenchmarkCall30KB is one call whose reply carries 30 KB of bytes, the
// size of an add-friend mailbox fetch, over loopback TCP.
func BenchmarkCall30KB(b *testing.B) {
	bulk := make([]byte, 30<<10)
	s := NewServer()
	HandleFunc(s, "bulk", func(struct{}) (any, error) { return bulk, nil })
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	c := Dial(addr)
	defer c.Close()
	var out []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Call("bulk", struct{}{}, &out); err != nil {
			b.Fatal(err)
		}
	}
	if len(out) != len(bulk) {
		b.Fatalf("reply carried %d bytes, want %d", len(out), len(bulk))
	}
}
