package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"strconv"
	"strings"

	"repro"
	"repro/internal/seq"
)

// A family is one kind of generated input: synthetic titin-like proteins
// of one length, analysed with one set of options. Each workload, and
// each probe of a traced run, draws its inputs from a fixed universe of
// generator seeds 1..Universe; the workload seed picks which members
// and in what order. The workloads take the whole universe, so runs
// with different seeds do the same work in a different order and
// differ only by noise.
type family struct {
	Name     string
	Len      int
	Universe int
	// Ref is the reference configuration whose reports every measured
	// report must match: the strict sequential scalar engine for exact
	// analyses, the scalar windowed path for the balanced preset.
	Ref repro.Options
}

var (
	famExact = family{Name: "exact-1200", Len: 1200, Universe: 32,
		Ref: repro.Options{NumTops: 15}}
	famLong = family{Name: "long-60000", Len: 60000, Universe: 8,
		Ref: repro.Options{NumTops: 15, Preset: "balanced"}}
	famServe = family{Name: "serve-300", Len: 300, Universe: 104,
		Ref: repro.Options{NumTops: 10}}
	families = []family{famExact, famLong, famServe}
)

// protein is one generated input with its reference digest.
type protein struct {
	Gen      uint64 // generator seed within the family universe
	Codes    []byte
	Residues string
	Want     string // reference digest
}

// pick returns k distinct generator seeds of f's universe, in an order
// fixed by the workload seed.
func (f family) pick(seed uint64, k int) []uint64 {
	r := rand.New(rand.NewPCG(seed, uint64(f.Len)))
	perm := r.Perm(f.Universe)
	if k > len(perm) {
		k = len(perm)
	}
	out := make([]uint64, k)
	for i := range out {
		out[i] = uint64(perm[i]) + 1
	}
	return out
}

// generate builds the proteins for the given generator seeds. Reference
// digests are attached separately (attachRefs), outside set-up timing.
func (f family) generate(gens []uint64) []*protein {
	out := make([]*protein, len(gens))
	for i, g := range gens {
		q := seq.SyntheticTitin(f.Len, g)
		out[i] = &protein{Gen: g, Codes: q.Codes, Residues: q.String()}
	}
	return out
}

//go:embed refs.json
var refsJSON []byte

// storedRefs maps family name -> generator seed -> reference digest.
var storedRefs = func() map[string]map[string]string {
	m := map[string]map[string]string{}
	if err := json.Unmarshal(refsJSON, &m); err != nil {
		panic(fmt.Sprintf("perfbench: refs.json: %v", err))
	}
	return m
}()

// attachRefs sets each protein's reference digest: the stored one when
// refs.json has it, otherwise computed now with the reference engine.
// It returns how many were computed.
func (f family) attachRefs(ps []*protein) (computed int, err error) {
	for _, p := range ps {
		if d, ok := storedRefs[f.Name][strconv.FormatUint(p.Gen, 10)]; ok {
			p.Want = d
			continue
		}
		rep, err := repro.Analyze("ref", p.Residues, f.Ref)
		if err != nil {
			return computed, fmt.Errorf("reference for %s/%d: %w", f.Name, p.Gen, err)
		}
		p.Want = digest(rep)
		computed++
	}
	return computed, nil
}

// digest is a short SHA-256 over everything a report asserts about the
// sequence: every top alignment (order, split, score, pairs) and every
// repeat family (copies, support, score, unit length, consensus,
// conservation). Sequence ID, telemetry and usage are excluded.
func digest(rep *repro.Report) string {
	var b strings.Builder
	for _, t := range rep.Tops {
		fmt.Fprintf(&b, "T%d/%d/%d:", t.Index, t.Split, t.Score)
		for _, p := range t.Pairs {
			fmt.Fprintf(&b, "%d,%d;", p.I, p.J)
		}
	}
	for _, f := range rep.Families {
		fmt.Fprintf(&b, "F%d/%d/%d/%s/%s:", f.Support, f.Score, f.UnitLen, f.Consensus,
			strconv.FormatFloat(f.Conservation, 'g', -1, 64))
		for _, c := range f.Copies {
			fmt.Fprintf(&b, "%d-%d;", c.Start, c.End)
		}
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:8])
}

// genRefs recomputes the reference digest of every universe member of
// every family with the reference engine and writes refs.json to path.
func genRefs(path string) error {
	out := map[string]map[string]string{}
	for _, f := range families {
		gens := make([]uint64, f.Universe)
		for i := range gens {
			gens[i] = uint64(i) + 1
		}
		m := map[string]string{}
		for _, p := range f.generate(gens) {
			rep, err := repro.Analyze("ref", p.Residues, f.Ref)
			if err != nil {
				return err
			}
			m[strconv.FormatUint(p.Gen, 10)] = digest(rep)
			fmt.Fprintf(os.Stderr, "%s %d %s\n", f.Name, p.Gen, m[strconv.FormatUint(p.Gen, 10)])
		}
		out[f.Name] = m
	}
	b, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
