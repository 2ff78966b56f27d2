package shredder

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// maxChangesEntry is the most one CHANGES.md entry may take: it says what
// changed and what moved, and leaves the detail to DESIGN.md and the tests.
// Entries numbered below firstShortEntry were written before the rule.
const (
	maxChangesEntry = 1536
	firstShortEntry = 26
)

// TestChangesEntriesStayShort holds every CHANGES.md entry from number
// firstShortEntry on — an entry runs from its "PR <n>:" line to the next
// one — to 1.5 KB.
func TestChangesEntriesStayShort(t *testing.T) {
	b, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	pr, size := 0, 0
	check := func() {
		if pr >= firstShortEntry && size > maxChangesEntry {
			t.Errorf("CHANGES.md entry %d is %d bytes, more than %d", pr, size, maxChangesEntry)
		}
	}
	for _, line := range strings.Split(strings.TrimRight(string(b), "\n"), "\n") {
		var n int
		if _, err := fmt.Sscanf(line, "PR %d:", &n); err == nil {
			check()
			pr, size = n, 0
		} else if size > 0 {
			size++ // the newline joining the entry's lines
		}
		size += len(line)
	}
	check()
}
