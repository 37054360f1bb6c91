package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
)

// bits renders every field of a result struct (metrics.Result,
// serve.Output) as exact bits: a float as its IEEE-754 pattern in hex, an
// integer in decimal, nested structs flattened as "Outer.Inner". Two outputs
// are the same exactly when their bits maps are equal — the Float64bits
// strength of the repository's determinism contract, where -0 differs from
// +0 and NaN equals itself.
func bits(v any) map[string]string {
	out := make(map[string]string)
	flatten(out, "", reflect.ValueOf(v))
	return out
}

func flatten(out map[string]string, prefix string, v reflect.Value) {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		name := prefix + f.Name
		fv := v.Field(i)
		switch fv.Kind() {
		case reflect.Float64, reflect.Float32:
			out[name] = fmt.Sprintf("%016x", math.Float64bits(fv.Float()))
		case reflect.Int, reflect.Int64, reflect.Int32:
			out[name] = strconv.FormatInt(fv.Int(), 10)
		case reflect.Bool:
			out[name] = strconv.FormatBool(fv.Bool())
		case reflect.Struct:
			flatten(out, name+".", fv)
		default:
			panic(fmt.Sprintf("npbench: bits: unsupported field %s of kind %s", name, fv.Kind()))
		}
	}
}

// firstDiff names the first field, in sorted order, where got differs from
// want, with both values; "" when they are identical.
func firstDiff(want, got map[string]string) string {
	keys := make([]string, 0, len(want)+len(got))
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		w, wok := want[k]
		g, gok := got[k]
		switch {
		case !wok:
			return fmt.Sprintf("field %s is unexpected", k)
		case !gok:
			return fmt.Sprintf("field %s is missing", k)
		case w != g:
			return fmt.Sprintf("field %s = %s, want %s", k, g, w)
		}
	}
	return ""
}

// goldenSet pins seed-42 outputs: workload → key → field → bits. The key is
// the scenario seed ("seed 42") for the simulator workloads and the job
// spec's cache key for the sampled npserved specs.
type goldenSet map[string]map[string]map[string]string

//go:embed golden/seed42.json
var goldenJSON []byte

// goldenNpexp is the exact npexp stdout of the npexp-figs sweep at seed 42.
//
//go:embed golden/npexp-figs.seed42.json
var goldenNpexp []byte

// goldenSeed is the one seed the goldens pin; other seeds run only the
// seed-independent checks.
const goldenSeed = 42

func loadGoldens() (goldenSet, error) {
	g := goldenSet{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden/seed42.json: %w", err)
	}
	return g, nil
}
