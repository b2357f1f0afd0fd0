package harness

import (
	"bufio"
	"os"
	"strings"
	"testing"
)

// TestTable2NCSL recounts Table 2's NCSL constants from the protocol
// files they name.
func TestTable2NCSL(t *testing.T) {
	for _, c := range []struct {
		files []string
		want  int
	}{
		{[]string{"../membership/membership.go", "../membership/ring.go"}, membershipNCSL},
		{[]string{"../qmon/qmon.go"}, qmonNCSL},
		{[]string{"../fme/fme.go"}, fmeNCSL},
	} {
		got := 0
		for _, f := range c.files {
			got += ncslFile(t, f)
		}
		if got != c.want {
			t.Errorf("%v: %d NCSL, the constant says %d", c.files, got, c.want)
		}
	}
}

// ncslFile counts the non-blank, non-comment lines of one Go file. Block
// comments are tracked across lines; a line that carries code before a
// trailing comment counts.
func ncslFile(t *testing.T, path string) int {
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	count := 0
	inBlock := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if inBlock {
			if idx := strings.Index(line, "*/"); idx >= 0 {
				line = strings.TrimSpace(line[idx+2:])
				inBlock = false
			} else {
				continue
			}
		}
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		if idx := strings.Index(line, "/*"); idx >= 0 && !strings.Contains(line[:idx], "\"") {
			before := strings.TrimSpace(line[:idx])
			if !strings.Contains(line[idx:], "*/") {
				inBlock = true
			}
			if before == "" {
				continue
			}
		}
		count++
	}
	return count
}
