package exp

import "testing"

// TestTableDataRender pins both renderings of a TableData: the aligned
// text every experiment prints and the RFC 4180 CSV behind -csv. An
// empty text skips the text check for cases that only exercise CSV
// escaping.
func TestTableDataRender(t *testing.T) {
	cases := []struct {
		name      string
		td        TableData
		text, csv string
	}{
		{
			name: "columns align to the widest cell",
			td: TableData{Title: "Title", Headers: []string{"name", "value"}, Rows: [][]string{
				{"alpha", "1.500"},
				{"a-much-longer-name", "42"},
			}},
			text: "Title\n" +
				"name                value\n" +
				"------------------  -----\n" +
				"alpha               1.500\n" +
				"a-much-longer-name  42   \n",
			csv: "name,value\nalpha,1.500\na-much-longer-name,42\n",
		},
		{
			name: "plain cells",
			td:   TableData{Title: "x", Headers: []string{"a", "b"}, Rows: [][]string{{"v", "2"}}},
			text: "x\na  b\n-  -\nv  2\n",
			csv:  "a,b\nv,2\n",
		},
		{
			name: "no title",
			td:   TableData{Headers: []string{"k"}, Rows: [][]string{{"v"}}},
			text: "k\n-\nv\n",
			csv:  "k\nv\n",
		},
		{
			name: "row wider than headers",
			td:   TableData{Headers: []string{"a"}, Rows: [][]string{{"1", "2"}}},
			text: "a\n-\n1  2\n",
			csv:  "a\n1,2\n",
		},
		{
			name: "escaped cells",
			td:   TableData{Headers: []string{"name,with,commas", "b"}, Rows: [][]string{{"v\"q\"", "line\nbreak"}}},
			csv:  "\"name,with,commas\",b\n\"v\"\"q\"\"\",\"line\nbreak\"\n",
		},
		{
			name: "only the cell that needs quotes is quoted",
			td:   TableData{Headers: []string{"a", "b,c", "d"}},
			csv:  "a,\"b,c\",d\n",
		},
		{name: "empty field", td: TableData{Headers: []string{""}}, csv: "\n"},
		{name: "quotes doubled", td: TableData{Headers: []string{"say \"hi\""}}, csv: "\"say \"\"hi\"\"\"\n"},
		{name: "line feed quoted", td: TableData{Headers: []string{"two\nlines"}}, csv: "\"two\nlines\"\n"},
		{name: "carriage return quoted", td: TableData{Headers: []string{"cr\rhere"}}, csv: "\"cr\rhere\"\n"},
		{name: "all specials", td: TableData{Headers: []string{"mix,\"q\"\nall"}}, csv: "\"mix,\"\"q\"\"\nall\"\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.text != "" {
				if got := c.td.String(); got != c.text {
					t.Errorf("String() = %q, want %q", got, c.text)
				}
			}
			if got := c.td.CSV(); got != c.csv {
				t.Errorf("CSV() = %q, want %q", got, c.csv)
			}
		})
	}
}
