package record

import (
	"fmt"
	"hash/fnv"
)

// SortSpec describes one ordering term: a field and a direction.
type SortSpec struct {
	Field int
	Desc  bool
}

// Key identifies the fields that form a comparison or hash key.
type Key []int

// Compare orders two encoded records of the same schema on the given
// ordering terms.
func (s *Schema) Compare(a, b []byte, spec []SortSpec) int {
	for _, t := range spec {
		c := s.CompareField(a, b, t.Field)
		if c != 0 {
			if t.Desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// CompareField orders two encoded records on a single field.
func (s *Schema) CompareField(a, b []byte, field int) int {
	switch s.fields[field].Type {
	case TInt:
		x, y := s.GetInt(a, field), s.GetInt(b, field)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	case TFloat:
		return compareFloats(s.GetFloat(a, field), s.GetFloat(b, field))
	case TBool:
		x, y := s.GetBool(a, field), s.GetBool(b, field)
		switch {
		case !x && y:
			return -1
		case x && !y:
			return 1
		}
		return 0
	default:
		return compareBytes(s.GetBytes(a, field), s.GetBytes(b, field))
	}
}

// CompareKeys orders record a's fields ka against record b's fields kb,
// pairwise. The key slices must have equal length. This is the form used
// by binary matching operators where the two inputs have different schemas.
func CompareKeys(sa *Schema, a []byte, ka Key, sb *Schema, b []byte, kb Key) int {
	for i := range ka {
		va, err := sa.Get(a, ka[i])
		if err != nil {
			panic(err)
		}
		vb, err := sb.Get(b, kb[i])
		if err != nil {
			panic(err)
		}
		if va.Kind.Fixed() != vb.Kind.Fixed() && va.Kind != vb.Kind {
			panic(fmt.Sprintf("record: comparing %s key field with %s", va.Kind, vb.Kind))
		}
		if c := CompareValues(va, vb); c != 0 {
			return c
		}
	}
	return 0
}

// Hash computes a 64-bit FNV-1a hash of the given key fields of an encoded
// record. Equal keys hash equally across schemas as long as the field
// values are equal.
func (s *Schema) Hash(data []byte, key Key) uint64 {
	h := fnv.New64a()
	var scratch [8]byte
	for _, f := range key {
		switch s.fields[f].Type {
		case TInt:
			putUint64(scratch[:], uint64(s.GetInt(data, f)))
			h.Write(scratch[:])
		case TFloat:
			// Hash the canonical integer value when the float is integral so
			// joins across int/float keys behave; otherwise hash the bits.
			putUint64(scratch[:], canonicalFloatBits(s.GetFloat(data, f)))
			h.Write(scratch[:])
		case TBool:
			if s.GetBool(data, f) {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
		default:
			h.Write(s.GetBytes(data, f))
			h.Write([]byte{0xff}) // terminator so ("a","b") != ("ab","")
		}
	}
	return h.Sum64()
}

func canonicalFloatBits(f float64) uint64 {
	if f == float64(int64(f)) {
		return uint64(int64(f))
	}
	return mathFloat64bits(f)
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// KeyValues extracts the key fields of a record as copied values, which
// outlive the record's buffer pin.
func (s *Schema) KeyValues(data []byte, key Key) []Value {
	out := make([]Value, len(key))
	for i, f := range key {
		v, err := s.Get(data, f)
		if err != nil {
			panic(err)
		}
		out[i] = v.Copy()
	}
	return out
}

func appendUint64(out []byte, tag byte, v uint64) []byte {
	out = append(out, tag)
	for i := 0; i < 8; i++ {
		out = append(out, byte(v>>(8*i)))
	}
	return out
}
