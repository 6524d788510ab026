package record

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Operators that create or key on records work on record images through
// the helpers in this file: a join output is spliced from its inputs'
// images, and a hash table is keyed on encoded key bytes. Neither
// decodes a record into values (paper §3: only support functions
// interpret record structure).

// AppendConcat appends to dst the image of the record that concatenates
// l (schema ls) and r (schema rs) under ls.Concat(rs), and returns the
// extended slice. The bytes are exactly those of encoding the decoded
// values of l followed by those of r, but no value is decoded: both
// fixed areas and both variable-length tails are copied, and the right
// side's tail end offsets shift by the length of the left tail. A
// truncated or corrupt input returns the error Decode would.
func AppendConcat(dst []byte, ls *Schema, l []byte, rs *Schema, r []byte) ([]byte, error) {
	lv, err := ls.tailLen(l)
	if err != nil {
		return nil, err
	}
	rv, err := rs.tailLen(r)
	if err != nil {
		return nil, err
	}
	base := len(dst)
	n := ls.fixedLen + rs.fixedLen + lv + rv
	dst = slices.Grow(dst, n)[:base+n]
	out := dst[base:]
	at := copy(out, l[:ls.fixedLen])
	at += copy(out[at:], r[:rs.fixedLen])
	at += copy(out[at:], l[ls.fixedLen:ls.fixedLen+lv])
	copy(out[at:], r[rs.fixedLen:rs.fixedLen+rv])

	ls.canonicalBools(out)
	right := out[ls.fixedLen:]
	rs.canonicalBools(right)
	for _, i := range rs.varIdx {
		off := rs.offsets[i]
		end := binary.LittleEndian.Uint32(right[off:])
		binary.LittleEndian.PutUint32(right[off:], end+uint32(lv))
	}
	return dst, nil
}

// tailLen validates an image's fixed area and variable-length end
// offsets, with the checks Decode makes, and returns the length of its
// variable-length tail. Bytes past the last field's end are not part of
// the record's value and are not counted.
func (s *Schema) tailLen(data []byte) (int, error) {
	if len(data) < s.fixedLen {
		return 0, fmt.Errorf("record: decode: %d bytes, need at least %d", len(data), s.fixedLen)
	}
	prev := 0
	for _, i := range s.varIdx {
		end := int(binary.LittleEndian.Uint32(data[s.offsets[i]:]))
		if prev > end || s.fixedLen+end > len(data) {
			return 0, fmt.Errorf("record: corrupt var-length bounds [%d,%d) for field %q in %d-byte record",
				s.fixedLen+prev, s.fixedLen+end, s.fields[i].Name, len(data))
		}
		prev = end
	}
	return prev, nil
}

// canonicalBools rewrites every boolean byte of the fixed area at the
// front of img to 0 or 1, the only bytes Encode writes for a boolean.
func (s *Schema) canonicalBools(img []byte) {
	for _, off := range s.boolOffs {
		if img[off] != 0 {
			img[off] = 1
		}
	}
}

// AppendKey appends the canonical key bytes of the given fields of an
// encoded record to dst and returns the extended slice. Each field is a
// type tag and its value; a float is keyed by its canonical bits (an
// integral float, -0 included, by its integer value), a string or byte
// field by its length and bytes. The bytes serve as hash table keys:
// look up with m[string(key)], which does not allocate, and convert to a
// string only to insert a new key. A truncated or corrupt record returns
// an error.
func (s *Schema) AppendKey(dst, data []byte, key Key) ([]byte, error) {
	for _, f := range key {
		v, err := s.Get(data, f)
		if err != nil {
			return nil, err
		}
		switch v.Kind {
		case TInt:
			dst = appendUint64(dst, 'i', uint64(v.I))
		case TFloat:
			dst = appendUint64(dst, 'f', canonicalFloatBits(v.F))
		case TBool:
			if v.B {
				dst = append(dst, 'b', 1)
			} else {
				dst = append(dst, 'b', 0)
			}
		default:
			dst = append(dst, 's')
			dst = appendUint64(dst, 'l', uint64(len(v.S)))
			dst = append(dst, v.S...)
		}
	}
	return dst, nil
}
