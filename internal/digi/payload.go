package digi

import (
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"strings"
)

// field is one member of a status payload.
type field struct {
	key string
	val any
}

// appendObject appends fields as one JSON object: byte for byte what
// json.Marshal makes of a map holding them, keys sorted as it sorts
// them. The scalars a model holds (bool, int64, float64, and strings
// with nothing to escape) are appended directly; any other value is
// json.Marshal'ed alone. A NaN or infinite float is an error, as it is
// to json.Marshal. fs is sorted in place.
func appendObject(b []byte, fs []field) ([]byte, error) {
	slices.SortFunc(fs, func(x, y field) int { return strings.Compare(x.key, y.key) })
	b = append(b, '{')
	for i, f := range fs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(appendString(b, f.key), ':')
		var err error
		if b, err = appendValue(b, f.val); err != nil {
			return nil, err
		}
	}
	return append(b, '}'), nil
}

// appendValue appends the JSON encoding of one value.
func appendValue(b []byte, v any) ([]byte, error) {
	switch t := v.(type) {
	case bool:
		return strconv.AppendBool(b, t), nil
	case int64:
		return strconv.AppendInt(b, t, 10), nil
	case float64:
		if !math.IsNaN(t) && !math.IsInf(t, 0) {
			return appendFloat(b, t), nil
		}
	case string:
		return appendString(b, t), nil
	}
	enc, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, enc...), nil
}

// appendFloat formats a finite float64 as encoding/json does: the
// shortest round-trip form, in exponent notation only below 1e-6 or
// from 1e21 up, with a two-digit negative exponent cut to one.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendString appends s as a JSON string.
func appendString(b []byte, s string) []byte {
	if plain(s) {
		return append(append(append(b, '"'), s...), '"')
	}
	enc, _ := json.Marshal(s) // a string always encodes
	return append(b, enc...)
}

// plain reports whether json.Marshal writes s unchanged between
// quotes: printable ASCII with no quote, backslash or HTML-escaped
// byte.
func plain(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c >= 0x7f, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}
