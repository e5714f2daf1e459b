package jsonenc

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

// scanSeeds reads the JSON documents of the span-tree and extras cases —
// one Go string literal a line, after a name in the extras file; blank
// lines and comments skipped — and returns each document and the raw text
// of every value token in it, as far as it decodes.
func scanSeeds(tb testing.TB) [][]byte {
	var seeds [][]byte
	for _, file := range []string{"../trace/testdata/trace_cases.txt", "../repository/testdata/extras_cases.txt"} {
		data, err := os.ReadFile(file)
		if err != nil {
			tb.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "//") {
				continue
			}
			if line[0] != '"' && line[0] != '`' {
				_, line, _ = strings.Cut(line, " ") // the extras case's name
			}
			doc, err := strconv.Unquote(line)
			if err != nil {
				tb.Fatalf("%s: %q: %v", file, line, err)
			}
			seeds = append(seeds, []byte(doc))
			dec := json.NewDecoder(strings.NewReader(doc))
			for start := dec.InputOffset(); ; start = dec.InputOffset() {
				tok, err := dec.Token()
				if err != nil {
					break
				}
				if _, delim := tok.(json.Delim); !delim {
					seeds = append(seeds, bytes.TrimLeft([]byte(doc[start:dec.InputOffset()]), " \t\r\n,:"))
				}
			}
		}
	}
	return seeds
}

// FuzzScanner holds Scanner's steps to encoding/json, the oracle, over
// arbitrary bytes taken as one value: Str takes only what json.Unmarshal
// into a string takes, returns that string, and AppendString writes the
// bytes back — and Str takes whatever AppendString writes; Plain takes
// exactly the strings of printable ASCII without an escape; Int, of 64 and
// of 32 bits, agrees with json.Unmarshal into the integer and takes
// exactly what strconv.AppendInt writes, so no leading zero and no -0; and
// Float takes exactly the numbers AppendFloat writes back. The seeds are
// the span-tree and extras cases and their tokens.
func FuzzScanner(f *testing.F) {
	for _, seed := range scanSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want string
		errWant := json.Unmarshal(data, &want)
		s := NewScanner(data)
		if got := s.Str(); s.Done() && (errWant != nil || got != want || !bytes.Equal(AppendString(nil, got), data)) {
			t.Fatalf("%q: Str = %q; json.Unmarshal = %q, %v; AppendString writes %s", data, got, want, errWant, AppendString(nil, got))
		}
		if errWant == nil {
			written := AppendString(nil, want)
			if s = NewScanner(written); s.Str() != want || !s.Done() {
				t.Fatalf("%q: Str does not take %s, which AppendString writes for %q", data, written, want)
			}
		}

		plain := len(data) >= 2 && data[0] == '"' && data[len(data)-1] == '"'
		for i := 1; plain && i < len(data)-1; i++ {
			plain = data[i] >= 0x20 && data[i] <= 0x7e && data[i] != '"' && data[i] != '\\'
		}
		s = NewScanner(data)
		if got := s.Plain(); s.Done() != plain || plain && (errWant != nil || string(got) != want) {
			t.Fatalf("%q: Plain = %q, %v; json.Unmarshal = %q, %v", data, got, s.Done(), want, errWant)
		}

		for _, bits := range []int{64, 32} {
			var want int64
			err := json.Unmarshal(data, &want)
			if bits == 32 {
				var want32 int32
				err = json.Unmarshal(data, &want32)
				want = int64(want32)
			}
			s = NewScanner(data)
			got := s.Int(bits)
			shortest := err == nil && string(data) == strconv.FormatInt(want, 10)
			if s.Done() != shortest || shortest && got != want {
				t.Fatalf("%q: Int(%d) = %d, %v; json.Unmarshal = %d, %v", data, bits, got, s.Done(), want, err)
			}
		}

		var wantF float64
		errF := json.Unmarshal(data, &wantF)
		written, finite := AppendFloat(nil, wantF)
		again := errF == nil && finite && bytes.Equal(written, data)
		s = NewScanner(data)
		if got := s.Float(); s.Done() != again || again && math.Float64bits(got) != math.Float64bits(wantF) {
			t.Fatalf("%q: Float = %v, %v; json.Unmarshal = %v, %v; AppendFloat writes %s", data, got, s.Done(), wantF, errF, written)
		}
	})
}
