package loader

import "testing"

func TestSmokeLoad(t *testing.T) {
	pkgs, err := LoadPackages("../../..", "./internal/sqlsem", "./internal/plan")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		t.Logf("pkg %s files=%d typeerrs=%d", p.Path, len(p.Files), len(p.Errors))
		for _, e := range p.Errors {
			t.Errorf("type error: %v", e)
		}
	}
	if len(pkgs) != 2 {
		t.Fatalf("want 2 pkgs, got %d", len(pkgs))
	}
}
