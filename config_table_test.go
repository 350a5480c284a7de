package stpq

import (
	"os"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestConfigTable keeps DESIGN.md §15 true of Config: its table names
// every field and no other, and its heading states their count.
func TestConfigTable(t *testing.T) {
	count, names := designTable(t, "DESIGN.md", "**`stpq.Config`**")
	var fields []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Config{})) {
		fields = append(fields, f.Name)
	}
	slices.Sort(fields)
	if !slices.Equal(names, fields) {
		t.Errorf("DESIGN.md §15 Config table names %q, Config has %q", names, fields)
	}
	if count != len(fields) {
		t.Errorf("DESIGN.md §15 says Config has %d fields, it has %d", count, len(fields))
	}
}

// designTable reads the DESIGN.md table under the paragraph that starts
// with heading: the count the heading states in parentheses, and the
// sorted code spans of the table's first column.
func designTable(t *testing.T, path, heading string) (int, []string) {
	t.Helper()
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(doc), "\n")
	at := slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(l, heading) })
	if at < 0 {
		t.Fatalf("%s has no paragraph starting %s", path, heading)
	}
	m := regexp.MustCompile(`\((\d+)`).FindStringSubmatch(lines[at])
	if m == nil {
		t.Fatalf("%s: %q states no count", path, lines[at])
	}
	count, _ := strconv.Atoi(m[1])
	code := regexp.MustCompile("`([^`]+)`")
	var names []string
	rows := 0
	for _, l := range lines[at+1:] {
		if !strings.HasPrefix(l, "|") {
			if rows > 0 {
				break
			}
			continue
		}
		if rows++; rows <= 2 { // the header and the separator
			continue
		}
		for _, c := range code.FindAllStringSubmatch(strings.Split(l, "|")[1], -1) {
			names = append(names, c[1])
		}
	}
	slices.Sort(names)
	return count, names
}
