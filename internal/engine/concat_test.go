package engine

import (
	"fmt"
	"strings"
	"testing"

	"sqlshare/internal/sqltypes"
)

// concatNodes returns every Concatenation in the plan rooted at n.
func concatNodes(n Node) []Node {
	var out []Node
	if n.Props().PhysicalOp == "Concatenation" {
		out = append(out, n)
	}
	for _, c := range n.Children() {
		out = append(out, concatNodes(c)...)
	}
	return out
}

// TestUnionAllChainIsOneConcatenation checks a UNION ALL chain compiles to
// one n-ary Concatenation whatever its nesting, while UNION (distinct) and
// ORDER BY keep their Sort and are not flattened through.
func TestUnionAllChainIsOneConcatenation(t *testing.T) {
	res := liveResolver(t, 50)
	branch := func(i int) string { return fmt.Sprintf("SELECT id FROM t WHERE grp = %d", i) }
	var left []string
	for i := 0; i < 5; i++ {
		left = append(left, branch(i))
	}
	// Left-deep, as Append rewrites a dataset: ((b0) UNION ALL (b1)) ...
	leftDeep := "(" + branch(0) + ")"
	for i := 1; i < 5; i++ {
		leftDeep = fmt.Sprintf("(%s) UNION ALL (%s)", leftDeep, branch(i))
	}
	cases := []struct {
		sql  string
		want []int // inputs of each Concatenation, in plan order
	}{
		{strings.Join(left, " UNION ALL "), []int{5}},
		{leftDeep, []int{5}},
		{"(" + branch(0) + ") UNION ALL ((" + branch(1) + ") UNION ALL (" + branch(2) + "))", []int{3}},
		// A distinct UNION operand is a Sort over its own Concatenation.
		{"(" + branch(0) + " UNION " + branch(1) + ") UNION ALL " + branch(2), []int{2, 2}},
		// A distinct UNION over a UNION ALL operand keeps both levels.
		{"(" + branch(0) + " UNION ALL " + branch(1) + ") UNION " + branch(2), []int{2, 2}},
	}
	for _, c := range cases {
		p := compileLive(t, res, c.sql)
		var got []int
		for _, n := range concatNodes(p.Root) {
			got = append(got, len(n.Children()))
		}
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s: Concatenation inputs %v, want %v", c.sql, got, c.want)
		}
	}
}

// TestUnionAllChainWidensOverAllInputs checks the flattened Concatenation's
// output types are the widening over every input, not just the last two.
func TestUnionAllChainWidensOverAllInputs(t *testing.T) {
	res := liveResolver(t, 10)
	p := compileLive(t, res, "SELECT id FROM t UNION ALL SELECT 1.5 FROM t UNION ALL SELECT id FROM t")
	if got := p.Columns[0].Type; got != sqltypes.Float {
		t.Fatalf("output type %v, want Float", got)
	}
	if n := len(concatNodes(p.Root)); n != 1 {
		t.Fatalf("%d Concatenations, want 1", n)
	}
}

// TestIdentityProjectionForwardsRows checks SELECT * (and a spelled-out
// identity list) returns the table's clustered rows without copying them,
// on the row and the vectorized path, while a reordering still copies.
func TestIdentityProjectionForwardsRows(t *testing.T) {
	res := liveResolver(t, 20)
	stored := res.Tables["t"].Scan()
	for _, vec := range []bool{false, true} {
		prev := SetVectorizedEnabled(vec)
		for _, sql := range []string{"SELECT * FROM t", "SELECT id, grp, pad FROM t"} {
			r, err := Query(sql, res, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Rows) != len(stored) || &r.Rows[0] != &stored[0] {
				t.Errorf("vectorized=%v %s: rows were copied, want the table's slice forwarded", vec, sql)
			}
		}
		r, err := Query("SELECT grp, id, pad FROM t", res, nil)
		if err != nil {
			t.Fatal(err)
		}
		if &r.Rows[0] == &stored[0] || r.Rows[0][0] != stored[0][1] {
			t.Errorf("vectorized=%v: a reordering projection must gather new rows", vec)
		}
		SetVectorizedEnabled(prev)
	}
}

// TestConcatenationReleasesChargesOnError checks a failing input releases
// the memory charges of the inputs that already ran.
func TestConcatenationReleasesChargesOnError(t *testing.T) {
	res := liveResolver(t, 200)
	p := compileLive(t, res,
		"SELECT id FROM t UNION ALL SELECT id FROM t UNION ALL SELECT id / (grp - grp) FROM t")
	prog := &Progress{}
	if _, err := p.Execute(&ExecContext{Progress: prog, MaxBytes: 1 << 30}); err == nil {
		t.Fatal("division by zero should fail the query")
	}
	if got := prog.Mem.Load(); got != 0 {
		t.Fatalf("%d bytes still charged after the failed execution, want 0", got)
	}
}
