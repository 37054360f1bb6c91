package tracegen

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"nopower/internal/trace"
)

// digestFile pins BuildMix bit for bit: one "mix ticks seed sha256" line per
// digestCases entry. multiTierFile pins GenerateMultiTier the same way, one
// "stacks ticks seed sha256" line per multiTierCases entry.
var (
	digestFile    = filepath.Join("testdata", "buildmix_digests.txt")
	multiTierFile = filepath.Join("testdata", "multitier_digests.txt")
)

type digestCase struct {
	mix   Mix
	ticks int
	seed  int64
}

func (c digestCase) String() string { return fmt.Sprintf("%s %d %d", c.mix, c.ticks, c.seed) }

// digestCases covers every mix family: the canonical mixes, the sized
// blends (scale1 and hetero1 have empty tiers), and the AI-burst sizes, at
// lengths below, at and past one synthetic day (TicksPerDay = 1000), and at
// three whole days, where every day after the first reuses the first day's
// diurnal wave.
func digestCases() []digestCase {
	mixes := []Mix{Mix180, Mix60L, Mix60M, Mix60H, Mix60HH, Mix60HHH, MixAIBurst, MixHetero,
		ScaleMix(1), ScaleMix(2), ScaleMix(3), ScaleMix(100),
		HeteroMix(1), HeteroMix(7), HeteroMix(25), AIBurstMix(1), AIBurstMix(5)}
	var cases []digestCase
	for _, m := range mixes {
		for _, ticks := range []int{1, 100, 1000, 2500, 3000} {
			for _, seed := range []int64{42, 7} {
				cases = append(cases, digestCase{m, ticks, seed})
			}
		}
	}
	return cases
}

// mixDigest hashes the set name and, in set order, every trace's name,
// class, length and the Float64bits of every sample.
func mixDigest(set *trace.Set) string {
	h := sha256.New()
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	str := func(s string) {
		put(uint64(len(s)))
		h.Write([]byte(s))
	}
	str(set.Name)
	for _, tr := range set.Traces {
		str(tr.Name)
		str(tr.Class)
		put(uint64(tr.Len()))
		for k := 0; k < tr.Len(); k++ {
			put(math.Float64bits(tr.At(k)))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func buildDigest(c digestCase) (string, error) {
	set, err := BuildMix(c.mix, c.ticks, c.seed)
	if err != nil {
		return "", fmt.Errorf("%s: %w", c, err)
	}
	return mixDigest(set), nil
}

// readDigests reads a digest file into a map from each line's first three
// fields to its digest.
func readDigests(t *testing.T, path string) map[string]string {
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 4 {
			t.Fatalf("%s: malformed line %q", path, sc.Text())
		}
		want[strings.Join(fields[:3], " ")] = fields[3]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestBuildMixDigest holds every sample, name and class of every mix family
// to the digests recorded before synthesis was restructured (arena, day
// table, concurrent tiers; the 3000-tick rows before the diurnal wave was
// shared across days), so a change to how traces are generated cannot
// change what is generated.
func TestBuildMixDigest(t *testing.T) {
	want := readDigests(t, digestFile)
	cases := digestCases()
	if len(want) != len(cases) {
		t.Errorf("%s has %d digests, want %d", digestFile, len(want), len(cases))
	}
	for _, c := range cases {
		w, ok := want[c.String()]
		if !ok {
			t.Errorf("%s: no recorded digest", c)
			continue
		}
		got, err := buildDigest(c)
		if err != nil {
			t.Fatal(err)
		}
		if got != w {
			t.Errorf("%s: digest %s, recorded %s", c, got, w)
		}
	}
}

// multiTierCase is one GenerateMultiTier call with the default tiers.
type multiTierCase struct {
	stacks, ticks int
	seed          int64
}

func (c multiTierCase) String() string { return fmt.Sprintf("%d %d %d", c.stacks, c.ticks, c.seed) }

// multiTierCases covers one, a few and ten stacks (the multi-tier example's
// corpus) at lengths below, at and past one synthetic day and at three
// whole days.
func multiTierCases() []multiTierCase {
	var cases []multiTierCase
	for _, stacks := range []int{1, 3, 10} {
		for _, ticks := range []int{1, 999, 1000, 2500, 3000} {
			for _, seed := range []int64{11, 17} {
				cases = append(cases, multiTierCase{stacks, ticks, seed})
			}
		}
	}
	return cases
}

// TestGenerateMultiTierDigest holds every sample, name and class of the
// multi-tier generator to the digests recorded before the diurnal wave was
// shared across days: it draws its request signal through fill, as BuildMix
// does, but from its own call.
func TestGenerateMultiTierDigest(t *testing.T) {
	want := readDigests(t, multiTierFile)
	cases := multiTierCases()
	if len(want) != len(cases) {
		t.Errorf("%s has %d digests, want %d", multiTierFile, len(want), len(cases))
	}
	for _, c := range cases {
		w, ok := want[c.String()]
		if !ok {
			t.Errorf("%s: no recorded digest", c)
			continue
		}
		set, err := GenerateMultiTier(c.stacks, nil, Params{Ticks: c.ticks, Seed: c.seed})
		if err != nil {
			t.Fatal(err)
		}
		if got := mixDigest(set); got != w {
			t.Errorf("%s: digest %s, recorded %s", c, got, w)
		}
	}
}

// TestBuildMixConcurrent builds the same blended and single-tier mixes from
// several goroutines at once: each build's tier goroutines write their own
// arenas, so every build must give the serial digests (and `make race`
// repeats this under the detector).
func TestBuildMixConcurrent(t *testing.T) {
	cases := []digestCase{{Mix180, 300, 42}, {MixHetero, 300, 7}, {ScaleMix(100), 300, 42},
		{HeteroMix(25), 300, 42}, {Mix60HHH, 300, 7}, {AIBurstMix(5), 300, 7}}
	want := make([]string, len(cases))
	for i, c := range cases {
		d, err := buildDigest(c)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = d
	}
	const builders = 4
	got := make([][]string, builders)
	var wg sync.WaitGroup
	for b := range got {
		got[b] = make([]string, len(cases))
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			for i := range cases {
				// Each builder walks the cases from its own offset, so
				// different mixes overlap too.
				j := (i + b) % len(cases)
				d, err := buildDigest(cases[j])
				if err != nil {
					t.Error(err)
				}
				got[b][j] = d
			}
		}(b)
	}
	wg.Wait()
	for b := range got {
		for i, c := range cases {
			if got[b][i] != want[i] {
				t.Errorf("builder %d, %s: digest %s, serial %s", b, c, got[b][i], want[i])
			}
		}
	}
}

// TestTraceDemandIsolated scales or clips one generated trace at a time and
// checks every other trace of the set against a fresh build: traces may share
// backing storage (a generator call's arena, the AI-burst schedule), but a
// write lands only on the trace it is made through.
func TestTraceDemandIsolated(t *testing.T) {
	writes := map[string]func(*trace.Trace){
		"Scale": func(tr *trace.Trace) { tr.Scale(2) },
		"Clip":  func(tr *trace.Trace) { tr.Clip(0) },
	}
	for _, c := range []digestCase{{Mix60L, 50, 1}, {Mix60HH, 50, 1}, {MixAIBurst, 50, 1},
		{Mix180, 50, 1}, {HeteroMix(10), 50, 1}} {
		ref, err := BuildMix(c.mix, c.ticks, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		for name, write := range writes {
			for i := range ref.Traces {
				set, err := BuildMix(c.mix, c.ticks, c.seed)
				if err != nil {
					t.Fatal(err)
				}
				write(set.Traces[i])
				if set.Traces[i].Len() != c.ticks {
					t.Fatalf("%s: %s left %s with %d ticks", c, name, set.Traces[i].Name, set.Traces[i].Len())
				}
				for j, tr := range set.Traces {
					if j == i {
						continue
					}
					for k := 0; k < c.ticks; k++ {
						if got, want := tr.At(k), ref.Traces[j].At(k); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s: %s on %s moved %s at tick %d: %v, built %v", c, name,
								set.Traces[i].Name, tr.Name, k, got, want)
						}
					}
				}
			}
		}
	}
}
