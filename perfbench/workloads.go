package main

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strings"
	"sync"

	"sqlshare/internal/catalog"
	"sqlshare/internal/loadgen"
	"sqlshare/internal/synth"
)

// opKind classifies a generated operation.
type opKind uint8

const (
	opQuery  opKind = iota // submit + long-poll until a terminal status
	opUpload               // stage + create
	opAppend               // stage + create + append into an existing dataset
)

func (k opKind) String() string {
	return [...]string{"query", "upload", "append"}[k]
}

// op is one generated operation. The program under test only ever sees
// the REST requests made from it.
type op struct {
	Kind opKind
	User string
	// SQL and Tpl (the template label) describe query ops.
	SQL string
	Tpl string
	// Name is the dataset an upload or append batch creates; Target is the
	// owner-local dataset an append splices it into.
	Name   string
	Target string
	Data   []byte
}

// setupDataset is a dataset uploaded (and optionally made public) during
// set-up, before the timed window.
type setupDataset struct {
	User, Name string
	Public     bool
	Data       []byte
}

// scenario is a generated workload: the users and datasets set-up creates
// and the stream of timed operations.
type scenario struct {
	Users []string
	Setup []setupDataset
	// Distinct, when known at generation time, is the number of distinct
	// query strings the stream draws from.
	Distinct int
	next     func() (op, bool)
	mu       sync.Mutex
}

// take returns the next operation of the stream; clients share one
// stream, so the sequence of operations is fixed by the seed whichever
// client runs each one.
func (s *scenario) take() (op, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.next()
}

// workload names a scenario generator; BENCHMARK.json says why the
// benchmark runs each one.
type workload struct {
	Name    string
	Durable bool
	// build generates the scenario for a seed; ops is the stream length
	// for generators that compile the whole stream up front.
	build func(seed int64, ops int) (*scenario, error)
}

var workloads = []workload{
	{
		Name: "sqlshare-mix",
		build: func(seed int64, ops int) (*scenario, error) {
			return fromSpec(mixSpec(ops), seed)
		},
	},
	{
		Name: "sdss-repeat",
		build: func(seed int64, ops int) (*scenario, error) {
			return sdssScenario(seed)
		},
	},
	{
		Name:    "durable-ingest",
		Durable: true,
		build: func(seed int64, ops int) (*scenario, error) {
			return fromSpec(ingestSpec(ops), seed)
		},
	},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (one of %s)", name, strings.Join(names, ", "))
}

// mixSpec is the load ramp spec of cmd/loadgen (8 users with 2 tables
// each, the paper's template mix, 8% appends and 4% uploads, dataset Zipf
// 0.8) with 400-row tables instead of 1500: at 1500 rows a single
// correlated subquery over a hot, appended table runs for seconds, and
// throughput varied twofold between seeds. Its arrival timestamps are
// ignored: the loop is closed.
func mixSpec(ops int) loadgen.WorkloadSpec {
	return loadgen.WorkloadSpec{
		Name: "sqlshare-mix", Users: 8, TablesPerUser: 2, RowsPerTable: 400,
		WriteFraction: 0.08, UploadFraction: 0.04,
		DatasetZipf: 0.8, ValueZipf: 0.5,
		Ops: ops, RatePerSec: 40, ThinkMs: 50,
	}
}

// ingestSpec puts writes beside reads: 50% append batches, 10% uploads
// and 40% filter/aggregate queries over the same datasets.
func ingestSpec(ops int) loadgen.WorkloadSpec {
	return loadgen.WorkloadSpec{
		Name: "durable-ingest", Users: 8, TablesPerUser: 2, RowsPerTable: 1500,
		Mix:           synth.TemplateMix{Filter: 1, Aggregate: 1},
		WriteFraction: 0.5, UploadFraction: 0.1,
		DatasetZipf: 0.8, ValueZipf: 0.5,
		Ops: ops, RatePerSec: 40,
	}
}

// catalogSeed seeds the compiled workloads' catalog and op population.
// It is fixed so that runs with different seeds differ in the ops they
// draw, not in which tables exist and which of them are hot.
const catalogSeed = 1

// firstRef matches the first bracketed dataset reference of a statement.
var firstRef = regexp.MustCompile(`\[([^\]]+)\]`)

// fromSpec compiles spec (seeded with catalogSeed) into a set-up and a
// population of ops, then orders the population for seed. Ops are grouped
// into strata by template and the dataset they touch first, each stratum
// is shuffled, and the strata are interleaved by smooth weighted round
// robin in their population shares. Every prefix of the stream then holds
// the mix almost exactly, rather than a random draw of it: the rare
// expensive queries (correlated subqueries over hot, appended datasets)
// come at the same rate in every run, whatever the seed.
func fromSpec(spec loadgen.WorkloadSpec, seed int64) (*scenario, error) {
	spec.Seed = catalogSeed
	plan, err := loadgen.Compile(spec)
	if err != nil {
		return nil, err
	}
	sc := &scenario{Users: plan.Users}
	for _, d := range plan.Setup {
		sc.Setup = append(sc.Setup, setupDataset{User: d.User, Name: d.Name, Public: d.Public, Data: d.Data})
	}
	byTpl := map[string][]loadgen.Op{}
	for _, o := range plan.Ops {
		k := o.Template + " " + o.Dataset
		if m := firstRef.FindStringSubmatch(o.SQL); m != nil {
			k = o.Template + " " + m[1]
		}
		byTpl[k] = append(byTpl[k], o)
	}
	names := make([]string, 0, len(byTpl))
	for t := range byTpl {
		names = append(names, t)
	}
	sort.Strings(names)
	rng := rand.New(rand.NewSource(seed))
	groups := make([][]loadgen.Op, len(names))
	weight := make([]int, len(names))
	for i, t := range names {
		g := byTpl[t]
		rng.Shuffle(len(g), func(a, b int) { g[a], g[b] = g[b], g[a] })
		groups[i], weight[i] = g, len(g)
	}
	credit := make([]int, len(names))
	sc.next = func() (op, bool) {
		pick := -1
		for i := range groups {
			credit[i] += weight[i]
			if pick < 0 || credit[i] > credit[pick] {
				pick = i
			}
		}
		credit[pick] -= len(plan.Ops)
		g := groups[pick]
		if len(g) == 0 {
			return op{}, false
		}
		o := g[0]
		g[0] = loadgen.Op{} // drop the payload reference once handed out
		groups[pick] = g[1:]
		out := op{User: o.User, SQL: o.SQL, Tpl: o.Template, Name: o.Name, Target: o.Dataset, Data: o.Data}
		switch o.Kind {
		case loadgen.OpQuery:
			out.Kind = opQuery
		case loadgen.OpUpload:
			out.Kind = opUpload
		case loadgen.OpAppend:
			out.Kind = opAppend
		}
		return out, true
	}
	return sc, nil
}

// sdssPool is how many statements the SDSS generator logs; the timed
// stream draws from them uniformly, which keeps the generator's repeat
// frequencies.
const sdssPool = 2000

// sdssMyDBFrac is the share of SDSS ops that save a small result table
// into the user's own space (CasJobs "MyDB"). The survey tables are never
// written, so these writes fence nothing the queries read.
const sdssMyDBFrac = 0.005

// sdssScenario builds the SDSS contrast workload: the survey tables of
// synth.GenerateSDSS (seeded with catalogSeed) uploaded as public datasets
// of user "sdss", and a stream of "webuser" queries drawn with seed from
// the generator's logged statements.
func sdssScenario(seed int64) (*scenario, error) {
	corpus, err := synth.GenerateSDSS(synth.SDSSConfig{Seed: catalogSeed, Queries: sdssPool})
	if err != nil {
		return nil, err
	}
	sc := &scenario{Users: []string{"sdss", "webuser"}}
	for _, name := range []string{"photoobj", "specobj", "photoz"} {
		data, err := exportCSV(corpus.Catalog, "sdss", "sdss."+name)
		if err != nil {
			return nil, err
		}
		sc.Setup = append(sc.Setup, setupDataset{User: "sdss", Name: name, Public: true, Data: data})
	}
	var pool []string
	distinct := map[string]bool{}
	for _, e := range corpus.Entries {
		if e.Err != "" {
			continue
		}
		pool = append(pool, e.SQL)
		distinct[e.SQL] = true
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("sdss: generator logged no successful statements")
	}
	sc.Distinct = len(distinct)
	rng := rand.New(rand.NewSource(seed))
	n := 0
	sc.next = func() (op, bool) {
		n++
		if rng.Float64() < sdssMyDBFrac {
			f := synth.MakeCSV(rng, synth.KindSensor, 20, false, false, false)
			return op{Kind: opUpload, User: "webuser", Tpl: "upload", Name: fmt.Sprintf("mydb_%d", n), Data: f.Data}, true
		}
		sql := pool[rng.Intn(len(pool))]
		return op{Kind: opQuery, User: "webuser", SQL: sql, Tpl: sdssShape(sql)}, true
	}
	return sc, nil
}

// sdssShape labels an SDSS statement with the SQLShare template it is
// closest to, so per-template engine time is comparable across workloads.
func sdssShape(sql string) string {
	switch {
	case strings.Contains(sql, " JOIN "):
		return string(synth.TplJoin)
	case strings.Contains(sql, "COUNT(") || strings.Contains(sql, "AVG("):
		return string(synth.TplAggregate)
	case strings.HasPrefix(sql, "SELECT TOP"):
		return string(synth.TplTop)
	default:
		return string(synth.TplFilter)
	}
}

// exportCSV renders a dataset as a headed CSV file, the form a user
// would upload.
func exportCSV(cat *catalog.Catalog, user, dataset string) ([]byte, error) {
	res, _, err := cat.Query(user, "SELECT * FROM ["+dataset+"]")
	if err != nil {
		return nil, fmt.Errorf("export %s: %w", dataset, err)
	}
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	_ = w.Write(res.ColumnNames())
	rec := make([]string, len(res.ColumnNames()))
	for _, row := range res.Rows {
		for i, v := range row {
			rec[i] = v.String()
		}
		_ = w.Write(rec)
	}
	w.Flush()
	return buf.Bytes(), w.Error()
}
