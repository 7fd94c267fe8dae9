package main

import (
	"bytes"
	"context"
	"os"
	"slices"
	"strings"
	"testing"

	"enrichdb"
	"enrichdb/internal/bench"
)

// TestReachScript runs the committed REPL script that `make reach` owns the
// EXPLAIN paths with, line by line through the REPL loop on a tiny dataset.
// The script holds only dot-commands, paper queries and their EXPLAIN forms;
// no line may answer an error. Every EXPLAIN answer must equal the rows
// DB.Run answers for the same statement and design, and every EXPLAIN
// ANALYZE answer must be rooted at the node its design runs: the loose and
// progressive phase trees, or the plan the plan-only EXPLAIN shows.
func TestReachScript(t *testing.T) {
	scale := bench.Small()
	scale.Tweets, scale.Images = 200, 80
	db, err := openDemo(scale)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	script, err := os.ReadFile("testdata/reach.txt")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	r := &runner{db: db, scale: scale, design: enrichdb.TightDesign, out: &out}
	paper := scale.Queries()
	ctx := context.Background()
	explains := 0
	for _, line := range strings.Split(strings.TrimSpace(string(script)), "\n") {
		query := strings.TrimPrefix(strings.TrimPrefix(line, "EXPLAIN "), "ANALYZE ")
		if !strings.HasPrefix(line, ".") && !slices.Contains(paper, query) {
			t.Fatalf("script line %q is neither a dot-command nor a paper query or its EXPLAIN", line)
		}
		out.Reset()
		r.loop(strings.NewReader(line))
		answer := strings.TrimSuffix(strings.TrimPrefix(out.String(), "> "), "> ")
		if strings.Contains(answer, "error:") {
			t.Fatalf("%s (%s design):\n%s", line, r.design, answer)
		}
		if query == line {
			continue
		}
		explains++
		got := strings.Split(strings.TrimSuffix(answer, "\n"), "\n")
		plan, err := db.Run(ctx, r.design, "EXPLAIN "+query, enrichdb.QueryObs{})
		if err != nil {
			t.Fatal(err)
		}
		want := make([]string, plan.Len())
		for i := range want {
			want[i] = plan.At(i)[0].Str()
		}
		if !strings.HasPrefix(line, "EXPLAIN ANALYZE ") {
			if !slices.Equal(got, want) {
				t.Errorf("%s (%s design): REPL answered\n%s\nDB.Run answers\n%s",
					line, r.design, strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
			continue
		}
		root := strings.Fields(want[0])[0]
		switch r.design {
		case enrichdb.LooseDesign:
			root = "LooseQuery"
		case enrichdb.ProgressiveDesign:
			root = "ProgressiveQuery"
		}
		if f := strings.Fields(got[0]); len(f) == 0 || f[0] != root {
			t.Errorf("%s (%s design): profile rooted at %q, want %s:\n%s", line, r.design, got[0], root, answer)
		}
	}
	if explains == 0 {
		t.Fatal("the script holds no EXPLAIN line")
	}
}
