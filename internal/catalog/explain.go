package catalog

import (
	"strings"

	"sqlshare/internal/engine"
	"sqlshare/internal/plan"
	"sqlshare/internal/sqlparser"
	"sqlshare/internal/sqltypes"
	"sqlshare/internal/storage"
)

// explain.go renders EXPLAIN [ANALYZE] operator trees as ordinary result
// sets, so the statements flow through the unchanged query protocol: the
// REST job endpoints and the CLI render them like any other rows. Explain
// returns the plan itself to embedded callers.

// Explain returns the extracted plan for a query without executing it.
func (c *Catalog) Explain(user, sql string) (*plan.QueryPlan, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	q, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	for _, name := range sqlparser.ReferencedTables(q) {
		if strings.HasPrefix(name, basePrefix) {
			continue
		}
		ds, err := c.lookupLocked(user, name)
		if err != nil {
			return nil, err
		}
		if err := c.checkAccessLocked(user, ds); err != nil {
			return nil, err
		}
	}
	p, err := engine.Compile(q, c.resolverLocked(user))
	if err != nil {
		return nil, err
	}
	return plan.FromEngine(sql, p), nil
}

// opIndent prefixes an operator label with its tree depth.
func opIndent(depth int, label string) string {
	return strings.Repeat("  ", depth) + label
}

// explainResult renders a compiled plan's estimates (plain EXPLAIN — no
// execution happened).
func explainResult(root *plan.Node) *engine.Result {
	res := &engine.Result{Cols: []engine.ColMeta{
		{Name: "operator", Type: sqltypes.String},
		{Name: "object", Type: sqltypes.String},
		{Name: "estRows", Type: sqltypes.Float},
		{Name: "io", Type: sqltypes.Float},
		{Name: "cpu", Type: sqltypes.Float},
		{Name: "totalCost", Type: sqltypes.Float},
		{Name: "vectorized", Type: sqltypes.Bool},
	}}
	var walk func(n *plan.Node, depth int)
	walk = func(n *plan.Node, depth int) {
		if n == nil {
			return
		}
		label := n.PhysicalOp
		if n.LogicalOp != "" && n.LogicalOp != n.PhysicalOp {
			label += " (" + n.LogicalOp + ")"
		}
		res.Rows = append(res.Rows, storage.Row{
			sqltypes.NewString(opIndent(depth, label)),
			sqltypes.NewString(n.Object),
			sqltypes.NewFloat(n.NumRows),
			sqltypes.NewFloat(n.IO),
			sqltypes.NewFloat(n.CPU),
			sqltypes.NewFloat(n.Total),
			sqltypes.NewBool(n.Vectorized),
		})
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	return res
}

// explainAnalyzeResult renders a traced execution as the estimate-vs-
// actual operator tree (EXPLAIN ANALYZE) — the SHOWPLAN
// RunTimeInformation pairing of §4, as a result set. cacheState reports how
// the result cache participated in the run; EXPLAIN ANALYZE itself always
// executes (bypass), but the footer keeps the disposition visible where
// users already look for runtime facts.
func explainAnalyzeResult(root *plan.TraceNode, cacheState string) *engine.Result {
	res := &engine.Result{Cols: []engine.ColMeta{
		{Name: "operator", Type: sqltypes.String},
		{Name: "object", Type: sqltypes.String},
		{Name: "estRows", Type: sqltypes.Float},
		{Name: "actualRows", Type: sqltypes.Int},
		{Name: "executions", Type: sqltypes.Int},
		{Name: "wallMs", Type: sqltypes.Float},
		{Name: "bytes", Type: sqltypes.Int},
		{Name: "workers", Type: sqltypes.Int},
		{Name: "vectorized", Type: sqltypes.Bool},
		{Name: "segsScanned", Type: sqltypes.Int},
		{Name: "segsSkipped", Type: sqltypes.Int},
	}}
	var walk func(n *plan.TraceNode, depth int)
	walk = func(n *plan.TraceNode, depth int) {
		if n == nil {
			return
		}
		label := n.PhysicalOp
		if n.LogicalOp != "" && n.LogicalOp != n.PhysicalOp {
			label += " (" + n.LogicalOp + ")"
		}
		res.Rows = append(res.Rows, storage.Row{
			sqltypes.NewString(opIndent(depth, label)),
			sqltypes.NewString(n.Object),
			sqltypes.NewFloat(n.EstRows),
			sqltypes.NewInt(n.ActualRows),
			sqltypes.NewInt(n.Executions),
			sqltypes.NewFloat(n.WallMillis),
			sqltypes.NewInt(n.ActualBytes),
			sqltypes.NewInt(n.Workers),
			sqltypes.NewBool(n.Vectorized),
			sqltypes.NewInt(n.SegmentsScanned),
			sqltypes.NewInt(n.SegmentsSkipped),
		})
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	if cacheState != "" {
		res.Rows = append(res.Rows, storage.Row{
			sqltypes.NewString("Result Cache"),
			sqltypes.NewString("cache: " + cacheState),
			sqltypes.NewFloat(0),
			sqltypes.NewInt(0),
			sqltypes.NewInt(0),
			sqltypes.NewFloat(0),
			sqltypes.NewInt(0),
			sqltypes.NewInt(0),
			sqltypes.NewBool(false),
			sqltypes.NewInt(0),
			sqltypes.NewInt(0),
		})
	}
	return res
}
