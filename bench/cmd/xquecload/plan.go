package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"

	"xquec"
	"xquec/bench"
	"xquec/internal/datagen"
	"xquec/internal/xmarkq"
)

// plan is one workload made concrete for one seed: how to build what
// the daemon serves, the distinct requests with their goldens, and the
// fixed script the clients replay.
type plan struct {
	w      bench.Workload
	seed   int64
	scale  float64
	units  int // per client per round
	rounds int

	args []string // extra xquecd flags

	// Set by build, which is the timed part of set-up.
	docs  []([]byte)
	dbs   []*xquec.Database          // what build compressed, in the order it saved them
	repos map[string]*xquec.Database // the same by the name xquecd serves them under

	// Set by prepare, untimed.
	distinct []*request // one of each request the trace replays
	warm     []*request
	script   [][]*request    // [client]: what a client replays in a round; every round replays it
	final    *xquec.Database // the corpus state compression_factor is taken on
	finalXML int             // its XML bytes
	// gate returns the failures of the checks that follow a round.
	gate func(d *daemon) []string
}

func xmark(scale float64, seed int64) []byte {
	return datagen.XMark(datagen.XMarkConfig{Scale: scale, Seed: seed})
}

// build generates the corpus from the seed, compresses it and writes the
// repository files the daemon will serve into dir.
func (p *plan) build(dir string) error {
	p.docs, p.dbs, p.repos = nil, nil, map[string]*xquec.Database{}
	add := func(doc []byte, opts xquec.Options, file string) error {
		db, err := xquec.Compress(doc, opts)
		if err != nil {
			return err
		}
		p.docs, p.dbs = append(p.docs, doc), append(p.dbs, db)
		p.repos[strings.TrimSuffix(file, filepath.Ext(file))] = db
		return db.SaveFile(filepath.Join(dir, file))
	}
	switch p.w.Name {
	case "partitioned_mix":
		doc := xmark(p.scale, p.seed)
		if err := add(doc, xquec.Options{Shards: bench.PartitionCount}, "shards.xqcs"); err != nil {
			return err
		}
		parts, err := splitSite(doc)
		if err != nil {
			return err
		}
		db, err := segmentSet(parts, filepath.Join(dir, "segs.xqcg"))
		if err != nil {
			return err
		}
		p.dbs, p.repos["segs"] = append(p.dbs, db), db
		return nil
	case "cold_ingest_open":
		for i := 0; i < bench.ColdFiles; i++ {
			doc := xmark(p.scale, p.seed*bench.ColdFiles+int64(i))
			if err := add(doc, xquec.Options{}, fmt.Sprintf("d%d.xqc", i)); err != nil {
				return err
			}
		}
		return nil
	default:
		return add(xmark(p.scale, p.seed), xquec.Options{}, "auction.xqc")
	}
}

// splitSite cuts an XMark document into PartitionCount documents whose
// root children, concatenated, are the original's: regions | categories
// and people | open_auctions | closed_auctions.
func splitSite(doc []byte) ([][]byte, error) {
	var cuts []int
	for _, tag := range []string{"<regions>", "<categories>", "<open_auctions>", "<closed_auctions>", "</site>"} {
		i := bytes.Index(doc, []byte(tag))
		if i < 0 {
			return nil, fmt.Errorf("splitSite: no %s in the corpus", tag)
		}
		cuts = append(cuts, i)
	}
	parts := make([][]byte, bench.PartitionCount)
	for i := range parts {
		parts[i] = append(append([]byte("<site>"), doc[cuts[i]:cuts[i+1]]...), "</site>"...)
	}
	return parts, nil
}

// segmentSet compresses parts[0] and appends the others as segments;
// with a manifest path the set is persisted there.
func segmentSet(parts [][]byte, manifest string) (*xquec.Database, error) {
	base, err := xquec.Compress(parts[0], xquec.Options{})
	if err != nil {
		return nil, err
	}
	w, err := xquec.NewWriter(base, xquec.Options{})
	if err != nil {
		return nil, err
	}
	if manifest != "" {
		w.BindFile(manifest)
	}
	for _, part := range parts[1:] {
		if err := w.Append(part); err != nil {
			return nil, err
		}
	}
	return w.Commit()
}

// setGolden evaluates r in-process on db and records what a correct
// reply carries: the item count and the SHA-256 of the body.
func setGolden(db *xquec.Database, r *request) error {
	res, err := db.Execute(context.Background(), r.text, xquec.QueryOptions{Parallelism: 1})
	if err != nil {
		return fmt.Errorf("golden %s: %w", r.label, err)
	}
	defer res.Close()
	h := sha256.New()
	if r.kind == kStream {
		var buf []byte
		for {
			it, ok, err := res.Next()
			if err != nil {
				return fmt.Errorf("golden %s: %w", r.label, err)
			}
			if !ok {
				break
			}
			if buf, err = it.AppendXML(buf[:0]); err != nil {
				return fmt.Errorf("golden %s: %w", r.label, err)
			}
			h.Write(append(buf, '\n'))
			r.want.count++
		}
	} else {
		if _, err := res.WriteXML(h); err != nil {
			return fmt.Errorf("golden %s: %w", r.label, err)
		}
		r.want.count = res.Len()
	}
	h.Sum(r.want.sum[:0])
	return nil
}

const lookupPerson = `/site/people/person[@id="person%d"]/name/text()`
const lookupItem = `/site/regions//item[@id="item%d"]/name/text()`

// xmarkTexts are the 15 requests of an xmark_mix pass: the paper's
// Fig. 7 set and the cheap extended queries (not Q11, which is
// quadratic), plus one seeded Q1-shaped lookup. An odd count of equally
// frequent texts puts p50 and p90 of the mixture inside one text's
// latency distribution instead of on the cliff between two.
func xmarkTexts(rng *rand.Rand, people int) [][2]string {
	var out [][2]string
	for _, q := range append(xmarkq.Queries(), xmarkq.ExtendedQueries()...) {
		if q.ID != "q11" {
			out = append(out, [2]string{q.ID, q.Text})
		}
	}
	k := 1 + rng.Intn(people-1)
	return append(out, [2]string{"q1k", fmt.Sprintf(`FOR $b IN /site/people/person[@id = "person%d"] RETURN $b/name/text()`, k)})
}

func pick(texts [][2]string, ids ...string) [][2]string {
	var out [][2]string
	for _, id := range ids {
		for _, t := range texts {
			if t[0] == id {
				out = append(out, t)
			}
		}
	}
	return out
}

// unitsOf strings p.units units into one client's script.
func (p *plan) unitsOf(unit func(i int) []*request) []*request {
	var out []*request
	for i := 0; i < p.units; i++ {
		out = append(out, unit(i)...)
	}
	return out
}

// prepare computes the goldens and lays out the script. It runs once,
// after the first build, and is not part of setup_s.
func (p *plan) prepare() error {
	rng := rand.New(rand.NewSource(p.seed))
	doc := p.docs[0]
	// oracle is the single plain repository the goldens come from.
	oracle := p.dbs[0]
	p.final, p.finalXML = oracle, len(doc)
	people := bytes.Count(doc, []byte("<person "))
	texts := xmarkTexts(rng, people)
	requests := func(kind int, repo string, texts [][2]string) ([]*request, error) {
		var out []*request
		for _, t := range texts {
			r := queryRequest(kind, t[0], repo, t[1])
			if err := setGolden(oracle, r); err != nil {
				return nil, err
			}
			out = append(out, r)
		}
		return out, nil
	}
	// passes gives every client its own seeded order of reqs, replayed
	// unchanged on every pass.
	passes := func(reqs []*request) {
		for c := 0; c < p.w.Clients; c++ {
			order := make([]*request, len(reqs))
			for i, j := range rng.Perm(len(reqs)) {
				order[i] = reqs[j]
			}
			p.script = append(p.script, p.unitsOf(func(int) []*request { return order }))
		}
	}

	switch p.w.Name {
	case "xmark_mix":
		reqs, err := requests(kQuery, "auction", texts)
		if err != nil {
			return err
		}
		p.distinct, p.warm = reqs, reqs
		passes(reqs)

	case "stream_large":
		wide := [][2]string{
			{"items", `FOR $i IN /site/regions//item RETURN <item name="{$i/name/text()}">{$i/description}</item>`},
			{"persons", `FOR $p IN /site/people/person RETURN $p`},
		}
		reqs, err := requests(kStream, "auction", append(pick(texts, "q2", "q17", "q19"), wide...))
		if err != nil {
			return err
		}
		p.distinct, p.warm = reqs, reqs
		passes(reqs)

	case "partitioned_mix":
		// The goldens come from a single plain repository of the same
		// document, so the shard and segment paths are checked against it.
		var err error
		if oracle, err = xquec.Compress(doc, xquec.Options{}); err != nil {
			return err
		}
		// p.final stays the shard set: its compression factor is reported.
		// Scatterable and fallback queries alternate, and each runs on
		// the shard set and then on the segment set.
		var reqs []*request
		for _, t := range pick(texts, "q2", "q8", "q13", "q9", "q14", "q20", "q17") {
			for _, repo := range []string{"shards", "segs"} {
				rs, err := requests(kQuery, repo, [][2]string{t})
				if err != nil {
					return err
				}
				rs[0].label += "/" + repo
				reqs = append(reqs, rs[0])
			}
		}
		p.distinct, p.warm = reqs, reqs
		passes(reqs)

	case "point_literal":
		names := map[string]string{}
		re := regexp.MustCompile(`<(?:person|item) id="((?:person|item)\d+)">(?:<location>[^<]*</location><quantity>\d+</quantity>)?<name>([^<]*)</name>`)
		for _, m := range re.FindAllSubmatch(doc, -1) {
			names[string(m[1])] = string(m[2])
		}
		items := bytes.Count(doc, []byte("<item "))
		allIDs := people + items
		if len(names) != allIDs {
			return fmt.Errorf("point_literal: %d names for %d persons and %d items", len(names), people, items)
		}
		// lookup asks for the name of person or item number id; an id past
		// the last one is absent and the correct reply is empty.
		lookup := func(item bool, id int, class string) *request {
			format, kindName := lookupPerson, "person"
			if item {
				format, kindName = lookupItem, "item"
			}
			r := queryRequest(kQuery, kindName+"-"+class, "auction", fmt.Sprintf(format, id))
			if name, ok := names[kindName+strconv.Itoa(id)]; ok {
				r.want.count = 1
				r.want.sum = sha256.Sum256([]byte(name))
			} else {
				r.want.sum = sha256.Sum256(nil)
			}
			return r
		}
		// A lookup's cost grows with the id's position in its kind (≈ 60 ns
		// a position: see README.md, Findings), so a draw over all 5 760
		// persons would make this an evaluator workload. Ids come from the
		// first PointIDs of each kind, which keeps the evaluator under a
		// fifth of a round trip and still gives 2 × PointIDs cold texts for
		// a plan cache of 256. The hot ids are evenly spaced from a seeded
		// offset, so every seed's hot set costs the same on average.
		people, items = min(people, bench.PointIDs), min(items, bench.PointIDs)
		hot := make([]*request, bench.PointHotTexts)
		half := len(hot) / 2
		for i := range hot {
			n := people
			if i%2 == 1 {
				n = items
			}
			hot[i] = lookup(i%2 == 1, (rng.Intn(n/half)+(i/2)*n/half)%n, "hot")
		}
		p.warm = hot
		for c := 0; c < p.w.Clients; c++ {
			p.script = append(p.script, p.unitsOf(func(int) []*request {
				unit := make([]*request, bench.PointUnitOps)
				for i := range unit {
					if i%3 < bench.PointHotOf3 {
						unit[i] = hot[rng.Intn(len(hot))]
						continue
					}
					item, n := rng.Intn(2) == 1, people
					if item {
						n = items
					}
					id := rng.Intn(n)
					if rng.Intn(100) < bench.PointAbsentPercent {
						id += allIDs // past the last id of either kind
					}
					unit[i] = lookup(item, id, "cold")
				}
				return unit
			}))
		}
		// Two hot persons, two hot items and the first two cold lookups.
		first := p.script[0]
		p.distinct = []*request{hot[0], hot[1], hot[2], hot[3], first[2], first[5]}

	case "cold_ingest_open":
		p.args = []string{"-pool", strconv.Itoa(bench.ColdPool)}
		var ingest, open []*request
		for i, db := range p.dbs {
			name := fmt.Sprintf("d%d", i)
			ingest = append(ingest, &request{kind: kIngest, label: "ingest", doc: p.docs[i], file: name + ".xqc"})
			r := queryRequest(kQuery, "q1", name, xmarkq.Q1)
			if err := setGolden(db, r); err != nil {
				return err
			}
			open = append(open, r)
		}
		p.distinct, p.warm = open, open
		// Files and requests both cycle d0 d1 d2: with a pool of 2 the
		// repository asked for is always the one evicted last.
		var script []*request
		for i := 0; i < p.units; i++ {
			script = append(script, ingest[i%len(ingest)])
		}
		for i := 0; i < p.units*bench.ColdOpensPerIngest; i++ {
			script = append(script, open[i%len(open)])
		}
		p.script = [][]*request{script}

	case "append_mixed":
		return p.prepareAppend(rng, texts)
	}
	return nil
}

// prepareAppend lays out append_mixed. The goldens of the reads change
// with every append, so an in-process Writer mirrors the script: each
// read's golden is taken on the mirror's state at that point. The final
// person count is derived from the generator's counts, not the mirror.
func (p *plan) prepareAppend(rng *rand.Rand, texts [][2]string) error {
	mirror, err := xquec.NewWriter(p.dbs[0], xquec.Options{})
	if err != nil {
		return err
	}
	frags, fragBytes, segments := 0, 0, 1
	appendReq := func(compact bool) (*request, error) {
		frag := xmark(bench.AppendFragScale, p.seed<<20+int64(frags))
		frags++
		fragBytes += len(frag)
		if err := mirror.Append(frag); err != nil {
			return nil, err
		}
		if _, err := mirror.Commit(); err != nil {
			return nil, err
		}
		segments++
		if compact {
			if _, err := mirror.Compact(context.Background()); err != nil {
				return nil, err
			}
			segments = 1
		}
		body, _ := json.Marshal(map[string]any{"repo": "auction", "doc": string(frag), "compact": compact})
		return &request{kind: kAppend, label: "append", repo: "auction", body: body, segments: segments}, nil
	}
	read := func(t [2]string) (*request, error) {
		r := queryRequest(kQuery, t[0], "auction", t[1])
		return r, setGolden(mirror.DB(), r)
	}

	// Warm pass: every read once on the base, then one compacting append,
	// which makes xquecd adopt the repository as a segment set.
	for _, t := range texts {
		r, err := read(t)
		if err != nil {
			return err
		}
		p.warm = append(p.warm, r)
	}
	first, err := appendReq(true)
	if err != nil {
		return err
	}
	p.warm = append(p.warm, first)
	// The trace replays the reads on the state the warm pass leaves.
	p.repos = map[string]*xquec.Database{"auction": mirror.DB()}
	for _, t := range texts {
		r, err := read(t)
		if err != nil {
			return err
		}
		p.distinct = append(p.distinct, r)
	}

	next := 0
	var buildErr error
	script := p.unitsOf(func(i int) []*request {
		var unit []*request
		for k := 0; k < bench.AppendReads && buildErr == nil; k++ {
			r, err := read(texts[next%len(texts)])
			next++
			unit, buildErr = append(unit, r), err
		}
		if buildErr != nil {
			return nil
		}
		a, err := appendReq((i+1)%bench.AppendCompactEvery == 0)
		buildErr = err
		return append(unit, a)
	})
	if buildErr != nil {
		return buildErr
	}
	p.script = [][]*request{script}
	p.final, p.finalXML = mirror.DB(), len(p.docs[0])+fragBytes

	basePeople := bytes.Count(p.docs[0], []byte("<person "))
	fragPeople := bytes.Count(xmark(bench.AppendFragScale, 0), []byte("<person "))
	wantPeople := strconv.Itoa(basePeople + frags*fragPeople)
	wantSegments := float64(segments)
	p.gate = func(d *daemon) (failures []string) {
		count := queryRequest(kQuery, "people", "auction", "count(/site/people/person)")
		count.want = golden{count: 1, sum: sha256.Sum256([]byte(wantPeople))}
		if rep := d.do(count, new(bytes.Buffer)); !rep.ok {
			failures = append(failures, "an append was lost: want "+wantPeople+" persons: "+rep.why)
		}
		c, err := d.counters()
		if err != nil || c["xquecd_repo_segments"] != wantSegments {
			failures = append(failures, fmt.Sprintf("segments %v (%v), want %v", c["xquecd_repo_segments"], err, wantSegments))
		}
		return failures
	}
	return nil
}
