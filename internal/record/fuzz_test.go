package record

import (
	"bytes"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to the record decoder: corrupt
// records must produce errors, never panics or out-of-bounds reads.
func FuzzDecode(f *testing.F) {
	s := MustSchema(
		Field{"i", TInt}, Field{"s", TString}, Field{"b", TBool}, Field{"y", TBytes},
	)
	good := s.MustEncode(Int(42), Str("hello"), Bool(true), Bytes([]byte{1, 2}))
	f.Add(good)
	f.Add([]byte{})
	f.Add(make([]byte, 25))
	trunc := append([]byte(nil), good[:10]...)
	f.Add(trunc)
	corrupt := append([]byte(nil), good...)
	corrupt[8] = 0xFF // var-length end offset out of range
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, data []byte) {
		vals, err := s.Decode(data)
		if err != nil {
			return
		}
		// A successful decode must re-encode without error.
		if _, err := s.Encode(vals); err != nil {
			t.Fatalf("decoded values do not re-encode: %v", err)
		}
	})
}

// FuzzAppendConcat splices arbitrary image pairs: the result must be
// the bytes of decode-concatenate-encode whenever both sides decode, and
// an error, never a panic, whenever either does not.
func FuzzAppendConcat(f *testing.F) {
	ls := MustSchema(Field{"i", TInt}, Field{"s", TString}, Field{"b", TBool}, Field{"y", TBytes})
	rs := MustSchema(Field{"f", TFloat}, Field{"s", TString}, Field{"t", TString})
	l := ls.MustEncode(Int(42), Str("hello"), Bool(true), Bytes([]byte{1, 2}))
	r := rs.MustEncode(Float(-0.5), Str(""), Str("tail"))
	f.Add(l, r)
	f.Add(l, make([]byte, rs.FixedLen()))
	f.Add(l[:10], r)
	f.Add(l, r[:len(r)-1])
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, l, r []byte) {
		got, err := AppendConcat(nil, ls, l, rs, r)
		want, werr := concatOracle(ls, l, rs, r)
		if (err != nil) != (werr != nil) {
			t.Fatalf("AppendConcat error %v, oracle error %v", err, werr)
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatalf("AppendConcat = %x, want %x", got, want)
		}
	})
}

// FuzzAppendKey keys arbitrary images: the bytes must equal the
// value-level KeyString rendering whenever the key fields decode, and
// an error, never a panic, must come back whenever they do not.
func FuzzAppendKey(f *testing.F) {
	s := MustSchema(
		Field{"i", TInt}, Field{"f", TFloat}, Field{"s", TString}, Field{"b", TBool}, Field{"y", TBytes},
	)
	good := s.MustEncode(Int(7), Float(3), Str("key"), Bool(true), Bytes([]byte{9}))
	f.Add(good, uint8(0))
	f.Add(good[:20], uint8(1))
	f.Add([]byte{}, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, pick uint8) {
		keys := []Key{{0, 1, 2, 3, 4}, {2}, {4, 0}, {3, 1}}
		k := keys[int(pick)%len(keys)]
		want, ok := keyOracle(s, data, k)
		got, err := s.AppendKey(nil, data, k)
		if ok != (err == nil) {
			t.Fatalf("AppendKey error %v, oracle ok=%v", err, ok)
		}
		if ok && string(got) != want {
			t.Fatalf("AppendKey = %x, want %x", got, want)
		}
	})
}

// FuzzParseSpec checks the schema-spec parser never panics and that
// accepted specs round-trip.
func FuzzParseSpec(f *testing.F) {
	f.Add("a:int,b:string")
	f.Add("x:float")
	f.Add(":,::")
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseSpec(spec)
		if err != nil {
			return
		}
		back, err := ParseSpec(s.Spec())
		if err != nil || !back.Equal(s) {
			t.Fatalf("spec %q does not round-trip", spec)
		}
	})
}
