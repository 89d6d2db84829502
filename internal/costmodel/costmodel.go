// Package costmodel implements §3 of the paper: the search space of
// compression configurations, the cost function scoring a configuration
// against a query workload, and the greedy search that picks how
// containers are partitioned into source-model groups and which
// algorithm compresses each group.
package costmodel

import (
	"fmt"
	"math/rand"
	"sort"

	"xquec/internal/compress"
	"xquec/internal/compress/alm"
	"xquec/internal/compress/blob"
	"xquec/internal/compress/huffman"
	"xquec/internal/compress/hutucker"
	"xquec/internal/workload"
)

// ContainerInfo describes one textual container to the cost model: its
// path, total plaintext size, and a sample of its values used to
// measure per-algorithm compression behaviour and container similarity.
type ContainerInfo struct {
	Path       string
	TotalBytes int
	Count      int
	Sample     [][]byte
}

// AlgorithmTraits is the d_c term of the paper's algorithm tuple
// ⟨d_c, c_s(F), c_a(F), eq, ineq, wild⟩. The F-dependent terms are
// measured per container, and eq, ineq and wild are the Props of the
// codec trained there (see measure).
type AlgorithmTraits struct {
	Name       string
	DecodeCost float64
}

// Algorithms is the candidate set A. Order matters for deterministic
// tie-breaking.
//
// DecodeCost is measured, not guessed: it is the reciprocal decode
// throughput of each codec normalized to huffman = 1.0 (EXPERIMENTS.md
// "Re-derived DecodeCost constants": BenchmarkCodecDecode on the XMark
// description container, alm 529.23, huffman 154.20, hutucker 119.27,
// blob 532.30 MB/s). Re-derive after kernel changes with
// `go test -run '^$' -bench 'BenchmarkCodecDecode' -benchmem .`: cost = huffman MB/s ÷ codec MB/s.
var Algorithms = []AlgorithmTraits{
	{Name: "alm", DecodeCost: 0.291},
	{Name: "huffman", DecodeCost: 1.0},
	{Name: "hutucker", DecodeCost: 1.293},
	{Name: "blob", DecodeCost: 0.29},
}

// DecodeCost returns the measured per-record decode cost of the codec
// family name, 1 (huffman's) for a family outside Algorithms.
func DecodeCost(name string) float64 {
	for _, a := range Algorithms {
		if a.Name == name {
			return a.DecodeCost
		}
	}
	return 1
}

// supports reports that the algorithm name answers a predicate of kind
// on compressed bytes: eq, ineq (order preservation) or wild in the
// Props of the codec measure trained.
func (m *Model) supports(name string, k workload.PredKind) bool {
	p := m.props[name]
	switch k {
	case workload.Eq:
		return p.Eq
	case workload.Ineq:
		return p.OrderPreserving
	case workload.Wild:
		return p.Wild
	}
	return false
}

// propCount is the "number of algorithmic properties holding true" the
// greedy move maximizes.
func (m *Model) propCount(name string) int {
	n := 0
	for _, k := range []workload.PredKind{workload.Eq, workload.Ineq, workload.Wild} {
		if m.supports(name, k) {
			n++
		}
	}
	return n
}

// Config is one point of the search space: a partition P of the
// containers and an algorithm per set.
type Config struct {
	// Sets maps a set ID to the member container indexes (into the
	// Model's container list), each with an algorithm name.
	Sets []ConfigSet
}

// ConfigSet is one element of the partition P.
type ConfigSet struct {
	Members   []int // container indexes, sorted
	Algorithm string
}

// Clone deep-copies the configuration.
func (c Config) Clone() Config {
	out := Config{Sets: make([]ConfigSet, len(c.Sets))}
	for i, s := range c.Sets {
		out.Sets[i] = ConfigSet{
			Members:   append([]int(nil), s.Members...),
			Algorithm: s.Algorithm,
		}
	}
	return out
}

// setOf returns the index of the set containing container ci.
func (c Config) setOf(ci int) int {
	for si, s := range c.Sets {
		for _, m := range s.Members {
			if m == ci {
				return si
			}
		}
	}
	return -1
}

// Model holds everything needed to cost configurations: containers, the
// workload matrices E/I/D, the similarity matrix F, and measured
// per-(algorithm, container) compression behaviour.
type Model struct {
	Containers []ContainerInfo
	W          *workload.Workload

	pathIdx map[string]int
	// E, I, D are the paper's comparison-count matrices; index
	// len(Containers) is the "constant" pseudo-container.
	E, I, D [][]int
	// F is the similarity matrix over containers.
	F [][]float64

	// measured per-algorithm, per-container: compressed-bytes ratio and
	// source-model bytes (on the sample, scaled to TotalBytes).
	ratio     map[string][]float64
	modelCost map[string][]float64
	// props are the capabilities of each algorithm's trained codec.
	props map[string]compress.Properties

	// Weights of the cost terms.
	StorageWeight    float64
	DecompressWeight float64
}

// NewModel builds the cost model for a set of containers and a
// workload. Containers not referenced by any predicate may be omitted
// by the caller (§3's footnote: they incur no cost).
func NewModel(containers []ContainerInfo, w *workload.Workload) (*Model, error) {
	return NewModelWith(containers, w, nil)
}

// NewModelWith lets the caller substitute the trainers used to measure
// per-algorithm behaviour (e.g. a dictionary-budget-constrained ALM for
// the §3.3 experiment). Nil entries fall back to the defaults.
func NewModelWith(containers []ContainerInfo, w *workload.Workload, trainers map[string]compress.Trainer) (*Model, error) {
	if len(containers) == 0 {
		return nil, fmt.Errorf("costmodel: no containers")
	}
	m := &Model{
		Containers:       containers,
		W:                w,
		pathIdx:          map[string]int{},
		StorageWeight:    1.0,
		DecompressWeight: 1.0,
	}
	for i, c := range containers {
		if _, dup := m.pathIdx[c.Path]; dup {
			return nil, fmt.Errorf("costmodel: duplicate container %s", c.Path)
		}
		m.pathIdx[c.Path] = i
	}
	n := len(containers) + 1 // +1: the constant pseudo-container
	m.E = intMatrix(n)
	m.I = intMatrix(n)
	m.D = intMatrix(n)
	for _, p := range w.Predicates {
		li, ok := m.pathIdx[p.Left]
		if !ok {
			continue // predicate on a container outside the model
		}
		ri := len(containers)
		if p.IsJoin() {
			if j, ok := m.pathIdx[p.Right]; ok {
				ri = j
			}
		}
		wt := p.Weight
		if wt <= 0 {
			wt = 1
		}
		var mx [][]int
		switch p.Kind {
		case workload.Eq:
			mx = m.E
		case workload.Ineq:
			mx = m.I
		case workload.Wild:
			mx = m.D
		}
		mx[li][ri] += wt
		mx[ri][li] += wt
	}
	m.buildSimilarity()
	m.measure(trainers)
	return m, nil
}

func intMatrix(n int) [][]int {
	m := make([][]int, n)
	for i := range m {
		m[i] = make([]int, n)
	}
	return m
}

// buildSimilarity fills F from byte-distribution similarity and value
// overlap of the samples (the paper's "number of overlapping values,
// character distribution within the container entries").
func (m *Model) buildSimilarity() {
	n := len(m.Containers)
	m.F = make([][]float64, n)
	hists := make([][256]float64, n)
	valueSets := make([]map[string]bool, n)
	for i, c := range m.Containers {
		total := 0
		vs := map[string]bool{}
		for _, v := range c.Sample {
			for _, b := range v {
				hists[i][b]++
			}
			total += len(v)
			if len(vs) < 4096 {
				vs[string(v)] = true
			}
		}
		if total > 0 {
			for b := range hists[i] {
				hists[i][b] /= float64(total)
			}
		}
		valueSets[i] = vs
	}
	for i := range m.Containers {
		m.F[i] = make([]float64, n)
		for j := range m.Containers {
			if i == j {
				m.F[i][j] = 1
				continue
			}
			// Bhattacharyya-style overlap of byte distributions.
			var hist float64
			for b := 0; b < 256; b++ {
				if hists[i][b] < hists[j][b] {
					hist += hists[i][b]
				} else {
					hist += hists[j][b]
				}
			}
			// Jaccard overlap of the sampled value sets.
			inter := 0
			for v := range valueSets[i] {
				if valueSets[j][v] {
					inter++
				}
			}
			union := len(valueSets[i]) + len(valueSets[j]) - inter
			jac := 0.0
			if union > 0 {
				jac = float64(inter) / float64(union)
			}
			m.F[i][j] = 0.7*hist + 0.3*jac
		}
	}
}

// measure trains each candidate algorithm on each container's sample
// once and records the achieved ratio and model size. These measured
// values realise the paper's cs(F) and ca(F) estimating functions.
func (m *Model) measure(override map[string]compress.Trainer) {
	m.ratio = map[string][]float64{}
	m.modelCost = map[string][]float64{}
	m.props = map[string]compress.Properties{}
	train := map[string]compress.Trainer{
		"alm":      alm.Trainer{},
		"huffman":  huffman.Trainer{},
		"hutucker": hutucker.Trainer{},
		"blob":     blob.Trainer{},
	}
	for name, tr := range override {
		if tr != nil {
			train[name] = tr
		}
	}
	for _, a := range Algorithms {
		ratios := make([]float64, len(m.Containers))
		models := make([]float64, len(m.Containers))
		for i, c := range m.Containers {
			codec, err := train[a.Name].Train(c.Sample)
			if err != nil {
				ratios[i] = 1.0
				models[i] = 0
				continue
			}
			m.props[a.Name] = codec.Props()
			plain, comp := 0, 0
			var enc []byte
			for _, v := range c.Sample {
				enc, err = codec.Encode(enc[:0], v)
				if err != nil {
					comp += len(v)
				} else {
					comp += len(enc)
				}
				plain += len(v)
			}
			if plain == 0 {
				ratios[i] = 1
			} else {
				ratios[i] = float64(comp) / float64(plain)
			}
			models[i] = float64(codec.ModelSize())
		}
		m.ratio[a.Name] = ratios
		m.modelCost[a.Name] = models
	}
}

// SizeOf returns the container's total plaintext bytes as float.
func (m *Model) SizeOf(i int) float64 { return float64(m.Containers[i].TotalBytes) }

// avgF returns the average pairwise similarity within a set (1 for
// singletons).
func (m *Model) avgF(members []int) float64 {
	if len(members) <= 1 {
		return 1
	}
	sum, n := 0.0, 0
	for a := 0; a < len(members); a++ {
		for b := a + 1; b < len(members); b++ {
			sum += m.F[members[a]][members[b]]
			n++
		}
	}
	return sum / float64(n)
}

// StorageCost estimates container + source-model bytes of a
// configuration: per set, each member's measured solo ratio inflated by
// the dissimilarity of the set (sharing one source model across
// dissimilar containers hurts, the §3 "ab/cd" example), plus one shared
// model estimated as the largest member model plus a dissimilarity-
// scaled share of the others.
func (m *Model) StorageCost(c Config) float64 {
	total := 0.0
	for _, set := range c.Sets {
		f := m.avgF(set.Members)
		penalty := 1 + 0.5*(1-f)
		ratios := m.ratio[set.Algorithm]
		models := m.modelCost[set.Algorithm]
		var maxModel, restModels float64
		for _, ci := range set.Members {
			total += ratios[ci] * penalty * m.SizeOf(ci)
			if models[ci] > maxModel {
				restModels += maxModel
				maxModel = models[ci]
			} else {
				restModels += models[ci]
			}
		}
		total += maxModel + (1-f)*restModels
	}
	return total
}

// DecompressCost sums, over the E/I/D matrices, the bytes that must be
// decompressed because a comparison cannot run in the compressed
// domain: different algorithms or different source models (cases i/ii)
// or an algorithm lacking the capability (case iii).
func (m *Model) DecompressCost(c Config) float64 {
	n := len(m.Containers)
	cost := 0.0
	for _, spec := range []struct {
		mx   [][]int
		kind workload.PredKind
	}{{m.E, workload.Eq}, {m.I, workload.Ineq}, {m.D, workload.Wild}} {
		for i := 0; i <= n; i++ {
			for j := i; j <= n; j++ {
				cnt := spec.mx[i][j]
				if cnt == 0 {
					continue
				}
				cost += float64(cnt) * m.pairCost(c, i, j, spec.kind)
			}
		}
	}
	return cost
}

// pairCost is the per-occurrence decompression cost of comparing
// containers i and j (index n = constant).
func (m *Model) pairCost(c Config, i, j int, kind workload.PredKind) float64 {
	n := len(m.Containers)
	if i == n && j == n {
		return 0
	}
	// Comparison with a constant: the constant can always be compressed
	// with the container's model, so the cost is zero iff the algorithm
	// supports the predicate.
	if i == n || j == n {
		ci := i
		if ci == n {
			ci = j
		}
		a := c.Sets[c.setOf(ci)].Algorithm
		if m.supports(a, kind) {
			return 0
		}
		return m.SizeOf(ci) * DecodeCost(a)
	}
	si, sj := c.setOf(i), c.setOf(j)
	ai, aj := c.Sets[si].Algorithm, c.Sets[sj].Algorithm
	if si == sj {
		if m.supports(ai, kind) {
			return 0 // same model, capable algorithm
		}
		// case (iii): same source model, incapable algorithm
		size := m.SizeOf(i) + m.SizeOf(j)
		if i == j {
			size = m.SizeOf(i)
		}
		return size * DecodeCost(ai)
	}
	// cases (i)/(ii): different algorithms or different source models
	return m.SizeOf(i)*DecodeCost(ai) + m.SizeOf(j)*DecodeCost(aj)
}

// Cost is the weighted total cost of a configuration.
func (m *Model) Cost(c Config) float64 {
	return m.StorageWeight*m.StorageCost(c) + m.DecompressWeight*m.DecompressCost(c)
}

// Initial returns s0: one singleton set per container, compressed with a
// generic order-unaware algorithm ("e.g. bzip" — our blob) and its own
// source model.
func (m *Model) Initial() Config {
	c := Config{Sets: make([]ConfigSet, len(m.Containers))}
	for i := range m.Containers {
		c.Sets[i] = ConfigSet{Members: []int{i}, Algorithm: "blob"}
	}
	return c
}

// bestAlgorithmsFor returns the candidate algorithms that enable kind,
// ordered by property count (desc) then by the order of Algorithms.
func (m *Model) bestAlgorithmsFor(kind workload.PredKind) []string {
	var out []string
	for _, a := range Algorithms {
		if m.supports(a.Name, kind) {
			out = append(out, a.Name)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return m.propCount(out[i]) > m.propCount(out[j]) })
	return out
}

// Search runs the greedy strategy of §3.3: starting from Initial, it
// draws |Pred| random predicates (seeded, for reproducibility) and
// applies the configuration moves — retarget the set's algorithm when
// both containers share a set, otherwise try pairing the two containers
// in a fresh set and merging their sets — keeping whichever candidate
// has minimum cost. It returns the final configuration and its cost.
func (m *Model) Search(seed int64) (Config, float64) {
	cur := m.Initial()
	curCost := m.Cost(cur)
	preds := m.W.Predicates
	if len(preds) == 0 {
		return cur, curCost
	}
	rng := rand.New(rand.NewSource(seed))
	// The paper draws |Pred| predicates; a small constant factor keeps
	// the complexity linear while covering small workloads reliably.
	steps := 3*len(preds) + 8
	for step := 0; step < steps; step++ {
		p := preds[rng.Intn(len(preds))]
		i, ok := m.pathIdx[p.Left]
		if !ok {
			continue
		}
		j := i
		if p.IsJoin() {
			if jj, ok := m.pathIdx[p.Right]; ok {
				j = jj
			}
		}
		si, sj := cur.setOf(i), cur.setOf(j)
		var candidates []Config
		if si == sj {
			for _, a := range m.bestAlgorithmsFor(p.Kind) {
				cand := cur.Clone()
				cand.Sets[si].Algorithm = a
				candidates = append(candidates, cand)
			}
		} else {
			for _, a := range m.bestAlgorithmsFor(p.Kind) {
				// s': extract {i, j} into a fresh set.
				cand := cur.Clone()
				cand.removeMember(si, i)
				cand.removeMember(sj, j)
				cand.Sets = append(cand.Sets, ConfigSet{Members: sortedPair(i, j), Algorithm: a})
				cand.compact()
				candidates = append(candidates, cand)
				// s'': merge the two sets.
				cand2 := cur.Clone()
				merged := append(append([]int{}, cand2.Sets[si].Members...), cand2.Sets[sj].Members...)
				sort.Ints(merged)
				cand2.Sets[si] = ConfigSet{Members: merged, Algorithm: a}
				cand2.Sets = append(cand2.Sets[:sj], cand2.Sets[sj+1:]...)
				candidates = append(candidates, cand2)
			}
		}
		for _, cand := range candidates {
			if cost := m.Cost(cand); cost < curCost {
				cur, curCost = cand, cost
			}
		}
	}
	return cur, curCost
}

func (c *Config) removeMember(si, ci int) {
	s := &c.Sets[si]
	for k, mm := range s.Members {
		if mm == ci {
			s.Members = append(s.Members[:k], s.Members[k+1:]...)
			return
		}
	}
}

// compact drops empty sets.
func (c *Config) compact() {
	out := c.Sets[:0]
	for _, s := range c.Sets {
		if len(s.Members) > 0 {
			out = append(out, s)
		}
	}
	c.Sets = out
}

func sortedPair(a, b int) []int {
	if a == b {
		return []int{a}
	}
	if a > b {
		a, b = b, a
	}
	return []int{a, b}
}

// PlanGroups converts a configuration into the loader's plan groups:
// group name -> member paths, plus algorithm names.
func (m *Model) PlanGroups(c Config) (map[string][]string, map[string]string) {
	groups := map[string][]string{}
	algs := map[string]string{}
	for si, s := range c.Sets {
		name := fmt.Sprintf("set%02d-%s", si, s.Algorithm)
		for _, ci := range s.Members {
			groups[name] = append(groups[name], m.Containers[ci].Path)
		}
		algs[name] = s.Algorithm
	}
	return groups, algs
}
