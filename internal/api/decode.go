package api

import (
	"bytes"
	"encoding/json"
	"strconv"
)

// DecodePlace decodes a POST /v1/place body into req, exactly as
// json.NewDecoder(bytes.NewReader(body)).Decode does on a zeroed
// PlaceRequest: the same value on success, the same error text on
// failure.
//
// The body is read in one pass when it has the canonical shape every
// encoder emits: keys in exact case, each at most once; strings of
// printable ASCII without escapes; numbers in the JSON grammar; null
// only for a list (a nil slice); nothing but whitespace after the
// object. Anything else (unknown or differently cased keys, escapes,
// null elsewhere, a malformed number, trailing bytes) is handed to
// encoding/json on a fresh value, so the one-pass path only ever
// decides how quickly a body is accepted, never whether.
func DecodePlace(body []byte, req *PlaceRequest) error {
	*req = PlaceRequest{}
	s := scanner{b: body}
	if s.place(req) && s.end() {
		return nil
	}
	*req = PlaceRequest{}
	return json.NewDecoder(bytes.NewReader(body)).Decode(req)
}

// DecodeMigrate is DecodePlace for a POST /v1/migrate body.
func DecodeMigrate(body []byte, req *MigrateRequest) error {
	*req = MigrateRequest{}
	s := scanner{b: body}
	if s.migrate(req) && s.end() {
		return nil
	}
	*req = MigrateRequest{}
	return json.NewDecoder(bytes.NewReader(body)).Decode(req)
}

// scanner is the one-pass reader behind DecodePlace and DecodeMigrate.
// Every method reports false as soon as the input leaves the canonical
// shape; the caller then discards whatever was decoded.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) place(req *PlaceRequest) bool {
	var seen uint
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "v":
			return once(&seen, 1) && s.int(&req.V)
		case "app":
			return once(&seen, 2) && s.app(&req.App)
		case "algorithm":
			return once(&seen, 4) && s.str(&req.Algorithm)
		case "model":
			return once(&seen, 8) && s.str(&req.Model)
		}
		return false
	})
}

func (s *scanner) migrate(req *MigrateRequest) bool {
	var seen uint
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "v":
			return once(&seen, 1) && s.int(&req.V)
		case "app":
			return once(&seen, 2) && s.app(&req.App)
		case "current":
			return once(&seen, 4) && s.ints(&req.Current)
		case "minGain":
			return once(&seen, 8) && s.float(&req.MinGain)
		case "model":
			return once(&seen, 16) && s.str(&req.Model)
		}
		return false
	})
}

func (s *scanner) app(a *AppSpec) bool {
	var seen uint
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "name":
			return once(&seen, 1) && s.str(&a.Name)
		case "cpu":
			return once(&seen, 2) && s.floats(&a.CPU)
		case "transfersMB":
			return once(&seen, 4) && s.triples(&a.TransfersMB)
		}
		return false
	})
}

// once marks bit in seen, reporting false if a key came twice:
// encoding/json merges a repeated key into the earlier value, which the
// one-pass path leaves to it.
func once(seen *uint, bit uint) bool {
	if *seen&bit != 0 {
		return false
	}
	*seen |= bit
	return true
}

// object reads an object, calling member once per key with the scanner
// at the key's value.
func (s *scanner) object(member func(key []byte) bool) bool {
	if !s.byte('{') {
		return false
	}
	if s.byte('}') {
		return true
	}
	for {
		key, ok := s.strBytes()
		if !ok || !s.byte(':') || !member(key) {
			return false
		}
		if !s.byte(',') {
			return s.byte('}')
		}
	}
}

// array reads an array, calling elem once per element with the scanner
// at it. An empty array is reported through elem never being called.
func (s *scanner) array(elem func() bool) bool {
	if !s.byte('[') {
		return false
	}
	if s.byte(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !s.byte(',') {
			return s.byte(']')
		}
	}
}

func (s *scanner) floats(out *[]float64) bool {
	if s.null() {
		return true
	}
	v := make([]float64, 0, s.elems())
	ok := s.array(func() bool {
		var f float64
		ok := s.float(&f)
		v = append(v, f)
		return ok
	})
	*out = v
	return ok
}

func (s *scanner) ints(out *[]int) bool {
	if s.null() {
		return true
	}
	v := make([]int, 0, s.elems())
	ok := s.array(func() bool {
		var n int
		ok := s.int(&n)
		v = append(v, n)
		return ok
	})
	*out = v
	return ok
}

// triples reads the [from, to, MB] list. A triple of any other length
// is left to encoding/json, which zero-fills or truncates it.
func (s *scanner) triples(out *[][3]float64) bool {
	if s.null() {
		return true
	}
	v := make([][3]float64, 0, s.elems())
	ok := s.array(func() bool {
		var t [3]float64
		ok := s.byte('[') && s.float(&t[0]) && s.byte(',') && s.float(&t[1]) &&
			s.byte(',') && s.float(&t[2]) && s.byte(']')
		v = append(v, t)
		return ok
	})
	*out = v
	return ok
}

// elems estimates the length of the array starting at the next
// non-space byte by counting its top-level commas, so a slice is
// allocated once. It is only a capacity hint: it never fails.
func (s *scanner) elems() int {
	s.ws()
	if s.i+1 >= len(s.b) || s.b[s.i] != '[' {
		return 0
	}
	n, depth := 1, 0
	for _, c := range s.b[s.i+1:] {
		switch c {
		case '[':
			depth++
		case ']':
			if depth == 0 {
				return n
			}
			depth--
		case ',':
			if depth == 0 {
				n++
			}
		}
	}
	return n
}

// null consumes a null literal. Encoders write one for a nil slice;
// decoded into a zeroed slice field it leaves the field nil.
func (s *scanner) null() bool {
	s.ws()
	if bytes.HasPrefix(s.b[s.i:], []byte("null")) {
		s.i += 4
		return true
	}
	return false
}

// end reports whether only whitespace follows the decoded value.
// encoding/json's Decoder ignores trailing bytes; the fallback keeps
// that.
func (s *scanner) end() bool {
	s.ws()
	return s.i == len(s.b)
}

func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// byte consumes c, after any whitespace, if it comes next.
func (s *scanner) byte(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// strBytes reads a string of printable ASCII without escapes, returning
// its contents in place.
func (s *scanner) strBytes() ([]byte, bool) {
	if !s.byte('"') {
		return nil, false
	}
	for j := s.i; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			v := s.b[s.i:j]
			s.i = j + 1
			return v, true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

func (s *scanner) str(out *string) bool {
	v, ok := s.strBytes()
	*out = string(v)
	return ok
}

// number reads a number in the JSON grammar and returns its literal.
func (s *scanner) number() ([]byte, bool) {
	s.ws()
	start := s.i
	if s.i < len(s.b) && s.b[s.i] == '-' {
		s.i++
	}
	switch {
	case s.i < len(s.b) && s.b[s.i] == '0':
		s.i++
	case !s.digits():
		return nil, false
	}
	if s.i < len(s.b) && s.b[s.i] == '.' {
		s.i++
		if !s.digits() {
			return nil, false
		}
	}
	if s.i < len(s.b) && (s.b[s.i] == 'e' || s.b[s.i] == 'E') {
		s.i++
		if s.i < len(s.b) && (s.b[s.i] == '+' || s.b[s.i] == '-') {
			s.i++
		}
		if !s.digits() {
			return nil, false
		}
	}
	return s.b[start:s.i], true
}

// digits consumes one or more decimal digits.
func (s *scanner) digits() bool {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i > start
}

// float reads a number as encoding/json stores it in a float64:
// strconv.ParseFloat, refusing what it refuses (an out-of-range
// exponent). A plain integer of at most 15 digits converts exactly, so
// it skips the parser.
func (s *scanner) float(out *float64) bool {
	lit, ok := s.number()
	if !ok {
		return false
	}
	digits, neg := bytes.CutPrefix(lit, []byte("-"))
	if len(digits) <= 15 && bytes.IndexAny(digits, ".eE") < 0 {
		var u uint64
		for _, c := range digits {
			u = u*10 + uint64(c-'0')
		}
		*out = float64(u)
		if neg {
			*out = -*out // "-0" is negative zero, as ParseFloat gives it
		}
		return true
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	*out = f
	return err == nil
}

// int reads a number as encoding/json stores it in an int:
// strconv.ParseInt at the int's size, refusing a fraction, an exponent
// or an overflow.
func (s *scanner) int(out *int) bool {
	lit, ok := s.number()
	if !ok {
		return false
	}
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	*out = int(n)
	return err == nil
}
