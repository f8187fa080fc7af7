package directive

import (
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"
)

func TestParse(t *testing.T) {
	cases := []struct {
		name string
		text string
		want []Directive
	}{
		{
			name: "not a directive",
			text: "// ordinary comment",
			want: nil,
		},
		{
			name: "space after slashes disqualifies",
			text: "// pglint:maprange reason",
			want: nil,
		},
		{
			name: "simple",
			text: "//pglint:ordered-irrelevant keys are sorted first",
			want: []Directive{{Name: "ordered-irrelevant", Reason: "keys are sorted first"}},
		},
		{
			name: "reasonless is parsed, reason empty",
			text: "//pglint:hotalloc",
			want: []Directive{{Name: "hotalloc", Reason: ""}},
		},
		{
			name: "reason whitespace trimmed",
			text: "//pglint:ctxflow   padded reason\t ",
			want: []Directive{{Name: "ctxflow", Reason: "padded reason"}},
		},
		{
			name: "crlf stripped",
			text: "//pglint:goroleak lives as long as the process\r\n",
			want: []Directive{{Name: "goroleak", Reason: "lives as long as the process"}},
		},
		{
			name: "embedded newline cuts the directive",
			text: "//pglint:goroleak first line\nnot part of it",
			want: []Directive{{Name: "goroleak", Reason: "first line"}},
		},
		{
			name: "unknown names still parse (ReportUnknown flags them)",
			text: "//pglint:nosuchrule because typos must surface",
			want: []Directive{{Name: "nosuchrule", Reason: "because typos must surface"}},
		},
		{
			name: "multiple directives per comment",
			text: "//pglint:maprange keys sorted //pglint:hotalloc amortized growth",
			want: []Directive{
				{Name: "maprange", Reason: "keys sorted"},
				{Name: "hotalloc", Reason: "amortized growth"},
			},
		},
		{
			name: "second directive reasonless",
			text: "//pglint:maprange keys sorted //pglint:hotalloc",
			want: []Directive{
				{Name: "maprange", Reason: "keys sorted"},
				{Name: "hotalloc", Reason: ""},
			},
		},
		{
			name: "comma-joined names share one reason",
			text: "//pglint:maprange,floateq keys are sorted before the compare",
			want: []Directive{
				{Name: "maprange", Reason: "keys are sorted before the compare"},
				{Name: "floateq", Reason: "keys are sorted before the compare"},
			},
		},
		{
			name: "comma-joined reasonless pair stays reasonless",
			text: "//pglint:maprange,floateq",
			want: []Directive{
				{Name: "maprange", Reason: ""},
				{Name: "floateq", Reason: ""},
			},
		},
		{
			name: "comma list composes with back-to-back directives",
			text: "//pglint:a,b shared //pglint:c own",
			want: []Directive{
				{Name: "a", Reason: "shared"},
				{Name: "b", Reason: "shared"},
				{Name: "c", Reason: "own"},
			},
		},
		{
			name: "trailing comma yields an empty name (ReportUnknown flags it)",
			text: "//pglint:goroleak, reason",
			want: []Directive{
				{Name: "goroleak", Reason: "reason"},
				{Name: "", Reason: "reason"},
			},
		},
		{
			name: "trailing want expectation is not part of the reason",
			text: "//pglint:ctxflow // want `needs a reason`",
			want: []Directive{{Name: "ctxflow", Reason: ""}},
		},
		{
			name: "empty name",
			text: "//pglint: reason with no name",
			want: []Directive{{Name: "", Reason: "reason with no name"}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Parse(tc.text)
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("Parse(%q)\n got %+v\nwant %+v", tc.text, got, tc.want)
			}
		})
	}
}

// FuzzParseDirective asserts the structural invariants of Parse on
// arbitrary comment text: it never panics, only prefix-matching text
// yields directives, every parsed chunk is internally consistent, and
// parsing is idempotent under the line-truncation it performs itself.
func FuzzParseDirective(f *testing.F) {
	f.Add("//pglint:maprange keys are sorted")
	f.Add("//pglint:hotalloc")
	f.Add("//pglint:a x //pglint:b y")
	f.Add("//pglint:maprange,floateq one reason, two analyzers")
	f.Add("//pglint:a,,b commas all the way down")
	f.Add("//pglint:,")
	f.Add("//pglint:goroleak reason\r\n")
	f.Add("// pglint:not-a-directive")
	f.Add("//pglint:ctxflow // want `needs a reason`")
	f.Add("//pglint:")
	f.Add("//pglint:\x00weird\nsecond line")
	f.Fuzz(func(t *testing.T, text string) {
		ds := Parse(text)
		if !strings.HasPrefix(text, Prefix) {
			if ds != nil {
				t.Fatalf("Parse(%q) = %+v for non-directive text", text, ds)
			}
			return
		}
		if len(ds) == 0 {
			t.Fatalf("Parse(%q) dropped a prefixed directive", text)
		}
		for _, d := range ds {
			if strings.ContainsAny(d.Name, " ,") {
				t.Fatalf("Parse(%q): name %q contains a space or comma (comma lists must be split)", text, d.Name)
			}
			for _, s := range []string{d.Name, d.Reason} {
				if strings.ContainsAny(s, "\r\n") {
					t.Fatalf("Parse(%q): field %q spans lines", text, s)
				}
				if utf8.ValidString(text) && !utf8.ValidString(s) {
					t.Fatalf("Parse(%q): invalid UTF-8 in %q", text, s)
				}
			}
			if d.Reason != strings.TrimSpace(d.Reason) {
				t.Fatalf("Parse(%q): untrimmed reason %q", text, d.Reason)
			}
			if d.Pos != 0 || d.Line != 0 {
				t.Fatalf("Parse(%q): position facts must stay zero, got %+v", text, d)
			}
		}
		// Idempotence under Parse's own single-line truncation.
		line := strings.TrimRight(text, "\r\n")
		if i := strings.IndexAny(line, "\n\r"); i >= 0 {
			line = line[:i]
		}
		if again := Parse(line); !reflect.DeepEqual(ds, again) {
			t.Fatalf("Parse(%q) != Parse(%q):\n%+v\n%+v", text, line, ds, again)
		}
	})
}
