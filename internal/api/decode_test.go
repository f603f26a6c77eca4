package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// checkDecode compares DecodePlace and DecodeMigrate on body with
// encoding/json's Decoder on fresh values: the same value and the same
// error text, or the test fails.
func checkDecode(t *testing.T, body []byte) {
	t.Helper()
	var got, want PlaceRequest
	gotErr := DecodePlace(body, &got)
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodePlace(%q) = %+v, %v; encoding/json gives %+v, %v", body, got, gotErr, want, wantErr)
	}
	var gotM, wantM MigrateRequest
	gotErr = DecodeMigrate(body, &gotM)
	wantErr = json.NewDecoder(bytes.NewReader(body)).Decode(&wantM)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(gotM, wantM) {
		t.Fatalf("DecodeMigrate(%q) = %+v, %v; encoding/json gives %+v, %v", body, gotM, gotErr, wantM, wantErr)
	}
}

// onePass reports whether the one-pass reader, not the encoding/json
// fallback, accepts body as the request type kind names.
func onePass(kind string, body []byte) bool {
	s := scanner{b: body}
	switch kind {
	case "place":
		var req PlaceRequest
		return s.place(&req) && s.end()
	case "migrate":
		var req MigrateRequest
		return s.migrate(&req) && s.end()
	}
	panic("unknown request kind " + kind)
}

// FuzzDecodeRequest pins the one-pass decoders to encoding/json on
// arbitrary bytes. Its seed corpus (testdata/fuzz/FuzzDecodeRequest)
// holds canonical bodies, which the one-pass path accepts (see
// TestCanonicalSeedsTakeOnePass), and one body per way off it.
func FuzzDecodeRequest(f *testing.F) {
	f.Fuzz(checkDecode)
}

// TestCanonicalSeedsTakeOnePass proves the fuzz corpus exercises the
// one-pass path: every canonical-place* and canonical-migrate* seed is
// accepted without the fallback.
func TestCanonicalSeedsTakeOnePass(t *testing.T) {
	paths, err := filepath.Glob("testdata/fuzz/FuzzDecodeRequest/canonical-*")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no canonical seeds: %v", err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lit, ok := strings.CutPrefix(string(data), "go test fuzz v1\n[]byte(")
		lit, ok2 := strings.CutSuffix(lit, ")\n")
		body, err := strconv.Unquote(lit)
		if !ok || !ok2 || err != nil {
			t.Fatalf("%s: not a one-[]byte corpus file: %v", path, err)
		}
		kind := strings.SplitN(filepath.Base(path), "-", 3)[1]
		if !onePass(kind, []byte(body)) {
			t.Errorf("%s: the one-pass %s reader fell back to encoding/json", path, kind)
		}
	}
}

// TestDecodeMatchesEncodingJSON runs random requests as a client
// encodes them (json.Marshal) through both decoders: the one-pass path
// must take every one and agree with encoding/json.
func TestDecodeMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	num := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return float64(rng.Intn(64))
		case 1:
			return rng.Float64() * 1000
		case 2:
			return math.Ldexp(rng.Float64(), rng.Intn(2000)-1000)
		}
		return -float64(rng.Int63())
	}
	spec := func() AppSpec {
		a := AppSpec{Name: fmt.Sprintf("app-%d", rng.Intn(1000))}
		for i := rng.Intn(20); i > 0; i-- {
			a.CPU = append(a.CPU, num())
		}
		for i := rng.Intn(30); i > 0; i-- {
			a.TransfersMB = append(a.TransfersMB, [3]float64{num(), num(), num()})
		}
		return a
	}
	for trial := 0; trial < 2000; trial++ {
		place := PlaceRequest{V: rng.Intn(3), App: spec(), Algorithm: []string{"", "choreo", "random"}[rng.Intn(3)]}
		migrate := MigrateRequest{V: rng.Intn(3), App: spec(), MinGain: num(), Model: []string{"", "hose", "pipe"}[rng.Intn(3)]}
		for i := rng.Intn(20); i > 0; i-- {
			migrate.Current = append(migrate.Current, rng.Intn(1<<20)-1<<19)
		}
		for kind, req := range map[string]interface{}{"place": place, "migrate": migrate} {
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			if !onePass(kind, body) {
				t.Fatalf("trial %d: the one-pass %s reader fell back on %s", trial, kind, body)
			}
			checkDecode(t, body)
		}
	}
}

// TestDecodeNegativeZero covers what reflect.DeepEqual cannot see: "-0"
// decodes to a negative zero, as strconv.ParseFloat gives it.
func TestDecodeNegativeZero(t *testing.T) {
	var req MigrateRequest
	if err := DecodeMigrate([]byte(`{"minGain":-0}`), &req); err != nil || !math.Signbit(req.MinGain) {
		t.Errorf("minGain -0 decoded as %v, %v; want negative zero", req.MinGain, err)
	}
}
