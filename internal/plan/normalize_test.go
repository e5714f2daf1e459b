package plan

import "testing"

func TestNormalize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"SELECT 1", "SELECT 1"},
		{"  SELECT\n\t1 ;", "SELECT 1"},
		{"SELECT  a ,\n b FROM t", "SELECT a , b FROM t"},
		{"select 'A  B'", "select 'A  B'"}, // quoted content is preserved
		{"select 'A  B' ,  c", "select 'A  B' , c"},
	}
	for _, c := range cases {
		if got := Normalize(c.in); got != c.want {
			t.Errorf("Normalize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	if Normalize("SELECT 'a b'") == Normalize("SELECT 'a  b'") {
		t.Error("queries differing inside a string literal must not conflate")
	}
}
