package record

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

// KeyString is the value-level key rendering AppendKey replaced: it
// renders decoded key values into a canonical string. It stays here as
// the oracle AppendKey must match byte for byte.
func KeyString(vals []Value) string {
	out := make([]byte, 0, 16*len(vals))
	for _, v := range vals {
		switch v.Kind {
		case TInt:
			out = appendUint64(out, 'i', uint64(v.I))
		case TFloat:
			out = appendUint64(out, 'f', canonicalFloatBits(v.F))
		case TBool:
			if v.B {
				out = append(out, 'b', 1)
			} else {
				out = append(out, 'b', 0)
			}
		default:
			out = append(out, 's')
			out = appendUint64(out, 'l', uint64(len(v.S)))
			out = append(out, v.S...)
		}
	}
	return string(out)
}

// keyOracle renders a record's key through decoded values; ok is false
// where KeyValues rejects the record.
func keyOracle(s *Schema, data []byte, key Key) (k string, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	return KeyString(s.KeyValues(data, key)), true
}

// concatOracle builds a join output the value-level way: decode both
// images, concatenate the values, encode under the concatenated schema.
func concatOracle(ls *Schema, l []byte, rs *Schema, r []byte) ([]byte, error) {
	lv, err := ls.Decode(l)
	if err != nil {
		return nil, err
	}
	rv, err := rs.Decode(r)
	if err != nil {
		return nil, err
	}
	return ls.Concat(rs).Encode(append(lv, rv...))
}

// checkConcat asserts AppendConcat matches the oracle on one pair, both
// into an empty buffer and appended behind existing bytes.
func checkConcat(t *testing.T, ls *Schema, l []byte, rs *Schema, r []byte) {
	t.Helper()
	want, werr := concatOracle(ls, l, rs, r)
	got, gerr := AppendConcat(nil, ls, l, rs, r)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("AppendConcat error %v, oracle error %v", gerr, werr)
	}
	if werr != nil {
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendConcat = %x, want %x", got, want)
	}
	prefix := []byte("prefix")
	got, _ = AppendConcat(append([]byte(nil), prefix...), ls, l, rs, r)
	if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("AppendConcat behind a prefix = %x, want %x%x", got, prefix, want)
	}
}

// checkKey asserts AppendKey matches the oracle on one record.
func checkKey(t *testing.T, s *Schema, data []byte, key Key) {
	t.Helper()
	want, ok := keyOracle(s, data, key)
	got, err := s.AppendKey(nil, data, key)
	if ok != (err == nil) {
		t.Fatalf("AppendKey error %v, oracle ok=%v", err, ok)
	}
	if ok && string(got) != want {
		t.Fatalf("AppendKey = %x, want %x", got, want)
	}
}

func TestAppendConcatMatchesDecodeEncode(t *testing.T) {
	mixed := MustSchema(Field{"id", TInt}, Field{"name", TString}, Field{"ok", TBool}, Field{"blob", TBytes})
	other := MustSchema(Field{"x", TFloat}, Field{"name", TString}, Field{"tag", TString}, Field{"y", TInt})
	fixed := MustSchema(Field{"a", TInt}, Field{"b", TFloat}, Field{"c", TBool})
	cases := []struct {
		name   string
		ls, rs *Schema
		l, r   []byte
	}{
		{"var both sides", mixed, other,
			mixed.MustEncode(Int(7), Str("alice"), Bool(true), Bytes([]byte{1, 2, 3})),
			other.MustEncode(Float(2.5), Str("bob"), Str("t"), Int(-1))},
		{"empty strings", mixed, other,
			mixed.MustEncode(Int(0), Str(""), Bool(false), Bytes(nil)),
			other.MustEncode(Float(0), Str(""), Str(""), Int(0))},
		{"empty left tail", mixed, other,
			mixed.MustEncode(Int(1), Str(""), Bool(true), Bytes(nil)),
			other.MustEncode(Float(1), Str("right"), Str("side"), Int(2))},
		{"all fixed", fixed, fixed,
			fixed.MustEncode(Int(math.MinInt64), Float(math.Inf(-1)), Bool(true)),
			fixed.MustEncode(Int(math.MaxInt64), Float(1e300), Bool(false))},
		{"fixed left var right", fixed, other,
			fixed.MustEncode(Int(3), Float(3), Bool(false)),
			other.MustEncode(Float(-2), Str("r"), Str("s"), Int(9))},
		{"var left fixed right", mixed, fixed,
			mixed.MustEncode(Int(3), Str("left"), Bool(true), Bytes([]byte("b"))),
			fixed.MustEncode(Int(4), Float(4), Bool(true))},
		{"NaN and negative zero", fixed, fixed,
			fixed.MustEncode(Int(1), Float(math.NaN()), Bool(false)),
			fixed.MustEncode(Int(2), Float(math.Copysign(0, -1)), Bool(true))},
		{"zero image padding", mixed, other,
			mixed.MustEncode(Int(5), Str("pad"), Bool(true), Bytes(nil)),
			make([]byte, other.FixedLen())},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkConcat(t, tc.ls, tc.l, tc.rs, tc.r)
			checkConcat(t, tc.rs, tc.r, tc.ls, tc.l)
		})
	}
}

func TestAppendConcatNormalisesLikeEncode(t *testing.T) {
	s := MustSchema(Field{"b", TBool}, Field{"s", TString})
	img := s.MustEncode(Bool(true), Str("abc"))
	img[0] = 7 // a non-canonical true decodes as true and encodes as 1
	img = append(img, "trailing"...)
	checkConcat(t, s, img, s, img)
}

func TestAppendConcatRejectsCorruptImages(t *testing.T) {
	s := MustSchema(Field{"i", TInt}, Field{"s", TString}, Field{"t", TString})
	good := s.MustEncode(Int(1), Str("ab"), Str("cd"))
	backwards := append([]byte(nil), good...)
	backwards[8], backwards[12] = 4, 2 // s ends after t ends
	past := append([]byte(nil), good...)
	past[12] = 0xff // t ends past the image
	for name, bad := range map[string][]byte{
		"truncated fixed area": good[:10],
		"truncated tail":       good[:len(good)-1],
		"backwards bounds":     backwards,
		"end past image":       past,
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := s.Decode(bad); err == nil {
				t.Fatal("oracle accepts the image; the case tests nothing")
			}
			if _, err := AppendConcat(nil, s, bad, s, good); err == nil {
				t.Fatal("corrupt left image accepted")
			}
			if _, err := AppendConcat(nil, s, good, s, bad); err == nil {
				t.Fatal("corrupt right image accepted")
			}
			if _, err := s.AppendKey(nil, bad, Key{2}); err == nil {
				t.Fatal("AppendKey accepted a corrupt key field")
			}
		})
	}
}

func TestAppendKeyMatchesKeyString(t *testing.T) {
	s := MustSchema(
		Field{"i", TInt}, Field{"f", TFloat}, Field{"s", TString},
		Field{"b", TBool}, Field{"y", TBytes},
	)
	all := Key{0, 1, 2, 3, 4}
	for _, vals := range [][]Value{
		{Int(42), Float(1.5), Str("k"), Bool(true), Bytes([]byte("v"))},
		{Int(0), Float(0), Str(""), Bool(false), Bytes(nil)},
		{Int(-1), Float(math.NaN()), Str("nan"), Bool(true), Bytes([]byte{0})},
		{Int(3), Float(math.Copysign(0, -1)), Str("neg zero"), Bool(false), Bytes([]byte{0xff})},
		{Int(3), Float(3), Str("int-valued float"), Bool(true), Bytes(nil)},
		{Int(math.MinInt64), Float(math.Inf(1)), Str("ab"), Bool(false), Bytes([]byte(""))},
	} {
		data := s.MustEncode(vals...)
		for _, k := range []Key{all, {0}, {1}, {2}, {3}, {4}, {4, 2, 0}, {1, 1}} {
			checkKey(t, s, data, k)
		}
	}
}

// TestAppendKeyEqualitySemantics pins the equalities hash tables rely
// on: -0 keys like 0, an integral float like its integer, and a string
// boundary cannot shift between adjacent fields.
func TestAppendKeyEqualitySemantics(t *testing.T) {
	key := func(s *Schema, k Key, vals ...Value) string {
		t.Helper()
		out, err := s.AppendKey(nil, s.MustEncode(vals...), k)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	f := MustSchema(Field{"f", TFloat})
	if key(f, Key{0}, Float(0)) != key(f, Key{0}, Float(math.Copysign(0, -1))) {
		t.Error("-0 and 0 key differently")
	}
	if key(f, Key{0}, Float(math.NaN())) != key(f, Key{0}, Float(math.NaN())) {
		t.Error("NaN keys differently from itself")
	}
	// An int field and an integral float field carry the same value
	// bits under different type tags, exactly as KeyString rendered them.
	i := MustSchema(Field{"i", TInt})
	ik, fk := key(i, Key{0}, Int(3)), key(f, Key{0}, Float(3))
	if ik[1:] != fk[1:] || ik[0] == fk[0] {
		t.Errorf("int 3 key %x, float 3 key %x: want equal value bits, distinct tags", ik, fk)
	}
	ss := MustSchema(Field{"a", TString}, Field{"b", TString})
	if key(ss, Key{0, 1}, Str("ab"), Str("")) == key(ss, Key{0, 1}, Str("a"), Str("b")) {
		t.Error(`("ab","") and ("a","b") key equally`)
	}
}

// Property: AppendConcat equals decode-concatenate-encode for arbitrary
// values on both sides, and AppendKey equals KeyString(KeyValues).
func TestQuickImageHelpers(t *testing.T) {
	ls := MustSchema(Field{"i", TInt}, Field{"s", TString}, Field{"b", TBool}, Field{"y", TBytes})
	rs := MustSchema(Field{"f", TFloat}, Field{"s", TString}, Field{"t", TString})
	var buf []byte
	prop := func(i int64, s1 string, b bool, y []byte, f float64, s2, s3 string) bool {
		l := ls.MustEncode(Int(i), Str(s1), Bool(b), Bytes(y))
		r := rs.MustEncode(Float(f), Str(s2), Str(s3))
		want, err := concatOracle(ls, l, rs, r)
		if err != nil {
			return false
		}
		var gerr error
		buf, gerr = AppendConcat(buf[:0], ls, l, rs, r)
		if gerr != nil || !bytes.Equal(buf, want) {
			return false
		}
		out := ls.Concat(rs)
		for _, k := range []Key{{0, 1, 2, 3, 4, 5, 6}, {4}, {6, 1}} {
			wk, _ := keyOracle(out, want, k)
			gk, err := out.AppendKey(nil, buf, k)
			if err != nil || string(gk) != wk {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestImageHelpersDoNotAllocate(t *testing.T) {
	ls := MustSchema(Field{"i", TInt}, Field{"s", TString})
	rs := MustSchema(Field{"f", TFloat}, Field{"t", TString}, Field{"b", TBool})
	l := ls.MustEncode(Int(1), Str("left"))
	r := rs.MustEncode(Float(2), Str("right"), Bool(true))
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(1000, func() {
		buf, _ = AppendConcat(buf[:0], ls, l, rs, r)
	}); n != 0 {
		t.Errorf("AppendConcat into a grown buffer allocates %v per call", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		buf, _ = ls.AppendKey(buf[:0], l, Key{1, 0})
	}); n != 0 {
		t.Errorf("AppendKey into a grown buffer allocates %v per call", n)
	}
}
