package analysis

import "testing"

// TestScopedPackagesExist guards the package lists the rules scope by: a
// renamed or deleted package would silently drop out of every ban, so each
// path named in simPackages, determinismScopes or the escape gate's
// escapePackages must be a package of the module.
func TestScopedPackagesExist(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := Load(root)
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	check := func(rel string) {
		if mod.Lookup(mod.Path+"/"+rel) == nil {
			t.Errorf("%s is named in a rule scope but is not a package of module %s", rel, mod.Path)
		}
	}
	for rel := range simPackages {
		check(rel)
	}
	for _, s := range determinismScopes {
		for rel := range s.pkgs {
			check(rel)
		}
	}
	for _, rel := range escapePackages {
		check(rel)
	}
}
