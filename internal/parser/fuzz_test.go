package parser

import (
	"reflect"
	"strings"
	"testing"
)

// The fuzz targets hold the parser to two properties on arbitrary input:
// it never panics, and whatever it accepts survives rendering and
// re-parsing unchanged — TestDumpRoundTripExamples' property promoted
// from five programs to the whole grammar. The seed corpus (the five
// examples/ programs, the appendix construction with its facts, hostile
// quoted names, and the query strings the tests use) is committed under
// testdata/fuzz/ and runs as ordinary test cases in every `go test`.

func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		res, err := Parse(src)
		if err != nil {
			return
		}
		var b strings.Builder
		for _, r := range res.Program.Rules {
			b.WriteString(RenderRule(r) + "\n")
		}
		for _, q := range res.Queries {
			b.WriteString("?- " + RenderAtom(q) + ".\n")
		}
		again, err := Parse(b.String())
		if err != nil {
			t.Fatalf("rendering of accepted input does not re-parse: %v\ninput:    %q\nrendered: %q", err, src, b.String())
		}
		if !reflect.DeepEqual(res, again) {
			t.Fatalf("render/parse round trip changed the program\ninput:    %q\nrendered: %q", src, b.String())
		}
	})
}

func FuzzParseAtom(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		a, err := ParseAtom(src)
		if err != nil {
			return
		}
		again, err := ParseAtom(RenderAtom(a))
		if err != nil {
			t.Fatalf("rendering of accepted atom does not re-parse: %v\ninput:    %q\nrendered: %q", err, src, RenderAtom(a))
		}
		if !reflect.DeepEqual(a, again) {
			t.Fatalf("render/parse round trip changed the atom\ninput:    %q\nrendered: %q", src, RenderAtom(a))
		}
	})
}
