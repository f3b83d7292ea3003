package faers

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadTables throws arbitrary bytes at the four '$'-delimited
// table readers. The contract under fuzz: no reader panics, every
// failure is a "faers: " error, and a reader that succeeds turned
// each non-empty data line into exactly one row.
func FuzzReadTables(f *testing.F) {
	for _, s := range []string{
		demoSample, drugSample, reacSample, outcSample,
		"", "\n", "primaryid$pt", "primaryid$pt\r\n1$X\r\n\r\n2\n",
		"primaryid$drug_seq$role_cod$drugname\n1$x$PS$A\n",
		"PRIMARYID $ PT $ extra\n1$$$$\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want := dataLines(data)
		check := func(kind string, rows int, err error) {
			if err != nil {
				if !strings.HasPrefix(err.Error(), "faers: ") {
					t.Fatalf("%s: error without the faers prefix: %v", kind, err)
				}
				return
			}
			if rows != want {
				t.Fatalf("%s: %d rows from %d data lines", kind, rows, want)
			}
		}
		demos, err := ReadDemo(bytes.NewReader(data))
		check("DEMO", len(demos), err)
		drugs, err := ReadDrug(bytes.NewReader(data))
		check("DRUG", len(drugs), err)
		reacs, err := ReadReac(bytes.NewReader(data))
		check("REAC", len(reacs), err)
		outcs, err := ReadOutc(bytes.NewReader(data))
		check("OUTC", len(outcs), err)
	})
}

// dataLines counts the lines after the header that stay non-empty
// once trailing carriage returns are trimmed: the rows a reader must
// emit.
func dataLines(data []byte) int {
	n := 0
	for _, line := range strings.Split(string(data), "\n")[1:] {
		if strings.TrimRight(line, "\r") != "" {
			n++
		}
	}
	return n
}
