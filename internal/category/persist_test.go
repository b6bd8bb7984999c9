package category

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/relation"
)

func TestTreeSaveLoadRoundTrip(t *testing.T) {
	r := testRelation(500)
	c := NewCategorizer(testStats(t), Options{M: 20, X: 0.1})
	tree, err := c.Categorize(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tree.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := LoadTree(&buf, r)
	if err != nil {
		t.Fatalf("LoadTree: %v", err)
	}
	if loaded.NodeCount() != tree.NodeCount() || loaded.Depth() != tree.Depth() {
		t.Fatalf("structure changed: %d/%d vs %d/%d",
			loaded.NodeCount(), loaded.Depth(), tree.NodeCount(), tree.Depth())
	}
	if got, want := TreeCostAll(loaded), TreeCostAll(tree); got != want {
		t.Fatalf("cost changed: %v vs %v", got, want)
	}
	if strings.Join(loaded.LevelAttrs, ",") != strings.Join(tree.LevelAttrs, ",") {
		t.Fatalf("levels changed: %v vs %v", loaded.LevelAttrs, tree.LevelAttrs)
	}
	var a, b []string
	tree.Root.Walk(func(n *Node, _ int) bool { a = append(a, n.Label.String()); return true })
	loaded.Root.Walk(func(n *Node, _ int) bool { b = append(b, n.Label.String()); return true })
	if strings.Join(a, "|") != strings.Join(b, "|") {
		t.Fatal("labels changed across round trip")
	}
}

func TestLoadTreeRejectsWrongRelation(t *testing.T) {
	r := testRelation(500)
	c := NewCategorizer(testStats(t), Options{M: 20, X: 0.1})
	tree, err := c.Categorize(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tree.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// A smaller relation: indices out of range.
	small := testRelation(10)
	if _, err := LoadTree(bytes.NewReader(buf.Bytes()), small); err == nil {
		t.Fatal("loading against a smaller relation should fail")
	}
	// A same-size relation with different contents: label validation fails.
	// testRelation is deterministic; perturb one tuple the tree references.
	other := relation.New(r.Name, r.Schema())
	for i := 0; i < r.Len(); i++ {
		row := r.Row(i)
		if i == tree.Root.Tset[0] {
			if row[0].Str == "Bellevue, WA" {
				row[0] = relation.StringValue("Seattle, WA")
			} else {
				row[0] = relation.StringValue("Bellevue, WA")
			}
		}
		other.MustAppend(row)
	}
	if _, err := LoadTree(bytes.NewReader(buf.Bytes()), other); err == nil {
		t.Fatal("loading against changed data should fail validation")
	}
}

func TestSaveRootless(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Tree{}).Save(&buf); err == nil {
		t.Fatal("rootless tree should not save")
	}
}

func TestLoadTreeGarbage(t *testing.T) {
	if _, err := LoadTree(strings.NewReader("junk"), testRelation(5)); err == nil {
		t.Fatal("garbage input should fail to decode")
	}
}
