// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (§5). Each Exp* function builds fresh
// database instances (cold enrichment state), runs the experiment, and
// returns a printable Table whose rows mirror the paper's.
//
// Absolute numbers differ from the paper — the substrate is this module's
// in-memory engine with pure-Go classifiers on synthetic data, not
// PostgreSQL+MADlib on AWS with 11M real tweets — but the comparative shapes
// (who wins, by roughly what factor, where crossovers fall) are the
// reproduction targets; see EXPERIMENTS.md.
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"enrichdb/internal/dataset"
	"enrichdb/internal/engine"
	"enrichdb/internal/enrich"
	"enrichdb/internal/loose"
	"enrichdb/internal/stats"
	"enrichdb/internal/telemetry"
	"enrichdb/internal/tight"
)

// Scale sizes the synthetic datasets. Small keeps the full suite in the
// minutes range; Paper pushes towards the paper's relative proportions.
type Scale struct {
	Name        string
	Tweets      int
	Images      int
	TopicDomain int
	TimeRange   int64
	Seed        int64
	// ExtraCost inflates every enrichment function's per-object cost,
	// standing in for the paper's heavyweight models (100ms+/object) at a
	// reduced scale.
	ExtraCost time.Duration
}

// Small is the default benchmarking scale.
func Small() Scale {
	return Scale{Name: "small", Tweets: 2000, Images: 800, TopicDomain: 8, TimeRange: 10000, Seed: 1}
}

// Medium is a larger scale for the standalone benchrunner.
func Medium() Scale {
	return Scale{Name: "medium", Tweets: 10000, Images: 3000, TopicDomain: 20, TimeRange: 10000, Seed: 1}
}

// Env is one freshly generated database with registered function families.
type Env struct {
	Scale Scale
	Data  *dataset.Data
	Mgr   *enrich.Manager
	// Tracer, when set, is handed to the drivers this env builds so their
	// phase spans land in one trace.
	Tracer *telemetry.Tracer
	// Stats is the env's shared runtime-statistics store (DESIGN §14),
	// handed to every driver the env builds so queries feed and consume one
	// adaptive feedback loop. Set it to nil to ablate (static plans, no
	// stats feedback).
	Stats *stats.Store
}

// Telemetry returns the env's metrics registry (the manager's): every
// component that ran against this env published its counters there.
func (e *Env) Telemetry() *telemetry.Registry { return e.Mgr.Telemetry() }

// OnEnv, when non-nil, observes every Env that NewEnv builds. The
// benchrunner installs it to collect the envs each experiment creates and
// merge their telemetry snapshots into one uniform counter table; it can
// also hand each env a shared Tracer. Set it before running experiments —
// it is read without synchronization.
var OnEnv func(*Env)

// NewEnv generates a dataset and trains/registers the given families. Envs
// built from the same scale and specs are identical, so loose and tight runs
// start from the same cold state.
func NewEnv(s Scale, specs map[[2]string][]dataset.ModelSpec) (*Env, error) {
	d, err := dataset.Generate(dataset.Config{
		Seed: s.Seed, Tweets: s.Tweets, Images: s.Images,
		TopicDomain: s.TopicDomain, TimeRange: s.TimeRange,
	})
	if err != nil {
		return nil, err
	}
	if s.ExtraCost > 0 {
		specs = withExtraCost(specs, s.ExtraCost)
	}
	mgr := enrich.NewManager()
	if err := d.RegisterFamilies(mgr, specs); err != nil {
		return nil, err
	}
	env := &Env{Scale: s, Data: d, Mgr: mgr, Stats: stats.NewStore()}
	if OnEnv != nil {
		OnEnv(env)
	}
	return env, nil
}

func withExtraCost(specs map[[2]string][]dataset.ModelSpec, cost time.Duration) map[[2]string][]dataset.ModelSpec {
	out := make(map[[2]string][]dataset.ModelSpec, len(specs))
	for k, ms := range specs {
		cp := make([]dataset.ModelSpec, len(ms))
		copy(cp, ms)
		for i := range cp {
			cp[i].ExtraCost = cost
		}
		out[k] = cp
	}
	return out
}

// LooseDriver builds a loose driver over the env (in-process server).
func (e *Env) LooseDriver() *loose.Driver {
	d := loose.NewDriver(e.Data.DB, e.Mgr)
	d.Tracer = e.Tracer
	d.Stats = e.Stats
	return d
}

// TightDriver builds a tight driver over the env.
func (e *Env) TightDriver() *tight.Driver {
	d := tight.NewDriver(e.Data.DB, e.Mgr)
	d.Tracer = e.Tracer
	d.Stats = e.Stats
	return d
}

// Queries instantiates the paper's nine query templates (Table 6) against
// the generated schemas. Parameters are chosen so each query is selective
// but non-empty at the configured scale.
func (s Scale) Queries() []string {
	t1, t2 := s.TimeRange/4, s.TimeRange/4+s.TimeRange/10 // a 10% time window
	k := int64(s.TopicDomain / 4)
	return []string{
		// Q1: single derived predicate, selection.
		"SELECT * FROM MultiPie WHERE gender = 1 AND CameraID < 5",
		// Q2: two derived predicates, selection.
		"SELECT * FROM MultiPie WHERE gender = 1 AND expression = 2 AND CameraID < 5",
		// Q3: two derived predicates over a time window.
		fmt.Sprintf("SELECT * FROM TweetData WHERE topic <= %d AND sentiment = 1 AND TweetTime BETWEEN %d AND %d", k, t1, t2),
		// Q4: self-join on two derived attributes (both sides time-bounded
		// to keep the probe sets finite, matching the paper's enrichment
		// counts).
		fmt.Sprintf("SELECT * FROM TweetData T1, TweetData T2 WHERE T1.sentiment = T2.sentiment AND T1.topic = T2.topic AND T1.TweetTime BETWEEN %d AND %d AND T2.TweetTime BETWEEN %d AND %d", t1, t2, t1, t2),
		// Q5: self-join on one derived attribute.
		"SELECT * FROM MultiPie M1, MultiPie M2 WHERE M1.gender = M2.gender AND M1.CameraID < 3 AND M2.CameraID < 3",
		// Q6: self-join on two derived attributes.
		"SELECT * FROM MultiPie M1, MultiPie M2 WHERE M1.gender = M2.gender AND M1.expression = M2.expression AND M1.CameraID < 3 AND M2.CameraID < 3",
		// Q7: join with a lookup table, single derived predicate.
		fmt.Sprintf("SELECT * FROM TweetData T1, State S WHERE T1.location = S.city AND S.state = 'California' AND T1.sentiment = 1 AND T1.TweetTime BETWEEN %d AND %d", t1, t2),
		// Q8: three-way join mixing a fixed equi-join (Tweet text) with a
		// derived join (topic) — the query whose rewritten form defeats the
		// tight design's optimizer.
		fmt.Sprintf("SELECT * FROM TweetData T1, TweetData T2, State S WHERE T1.Tweet = T2.Tweet AND T1.topic = T2.topic AND T1.location = S.city AND S.state = 'California' AND T1.TweetTime BETWEEN %d AND %d", t1, t2),
		// Q9: aggregation with a derived group-by.
		fmt.Sprintf("SELECT topic, count(*) FROM TweetData WHERE TweetTime BETWEEN %d AND %d GROUP BY topic", t1, t2),
	}
}

// Q3WithSelectivity instantiates Q3 with a topic predicate passing roughly
// the given fraction of the domain.
func (s Scale) Q3WithSelectivity(frac float64) string {
	k := int64(float64(s.TopicDomain)*frac) - 1
	if k < 0 {
		k = 0
	}
	t1, t2 := s.TimeRange/4, s.TimeRange/4+s.TimeRange/10
	return fmt.Sprintf("SELECT * FROM TweetData WHERE topic <= %d AND sentiment = 1 AND TweetTime BETWEEN %d AND %d", k, t1, t2)
}

// BaselineEnrichments is the "complete enrichment before querying" cost: one
// execution per (tuple, derived attribute, family function) over every
// relation the query touches.
func (e *Env) BaselineEnrichments(query string) (int64, error) {
	a, err := engine.AnalyzeSQL(query, e.Data.DB.Catalog())
	if err != nil {
		return 0, err
	}
	seen := make(map[string]bool)
	var total int64
	for _, tm := range a.Tables {
		if seen[tm.Relation] {
			continue
		}
		seen[tm.Relation] = true
		tbl := e.Data.DB.MustTable(tm.Relation)
		for _, attr := range tm.Schema.DerivedCols() {
			fam := e.Mgr.Family(tm.Relation, attr)
			if fam == nil {
				continue
			}
			total += int64(tbl.Len()) * int64(len(fam.Functions))
		}
	}
	return total, nil
}

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, c)
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	printRow(t.Header)
	for _, r := range t.Rows {
		printRow(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// String renders the table.
func (t *Table) String() string {
	var sb strings.Builder
	t.Fprint(&sb)
	return sb.String()
}

func dur(d time.Duration) string {
	return d.Round(10 * time.Microsecond).String()
}
