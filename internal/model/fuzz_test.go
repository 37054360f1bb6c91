package model

import "testing"

// FuzzParseDistribution hardens the fleet-distribution parser, which takes
// strings from `npsim -profiles` and the npserved job spec. Whatever the
// input: no panic; an accepted spec's canonical String() parses back to
// itself; and Models(n) gives each share n·w/total servers, rounded down or
// up, with the counts summing to n. The seed corpus, which plain `go test`
// runs, carries weights that used to wrap the apportionment around. Run
// `go test -fuzz=FuzzParseDistribution ./internal/model` for a campaign.
func FuzzParseDistribution(f *testing.F) {
	for _, seed := range []string{
		"bladea:3,serverb:2,rack-2u-32:1",
		"arm-microblade:3, serverb:2 ,bladea",
		"bladea:9223372036854775807,serverb:1",
		"bladea:153722867280912931,serverb:1",
		"bladea:4611686018427387904,serverb:4611686018427387904",
		"bladea:1048576,serverb:1048576,bladea:1",
		"bladea:0", "bladea:x", ",,", "nope:1", "bladea:1:2",
	} {
		f.Add(seed, uint16(60))
	}
	f.Fuzz(func(t *testing.T, spec string, n16 uint16) {
		d, err := ParseDistribution(spec)
		if err != nil {
			return
		}
		canon := d.String()
		if d2, err := ParseDistribution(canon); err != nil || d2.String() != canon {
			t.Fatalf("canonical form %q of %q does not round-trip: %v", canon, spec, err)
		}
		n := 1 + int(n16)%500
		ms, err := d.Models(n)
		if err != nil {
			t.Fatalf("Models(%d) of accepted %q: %v", n, canon, err)
		}
		if len(ms) != n {
			t.Fatalf("%q: Models(%d) returned %d servers", canon, n, len(ms))
		}
		// A name may appear in several shares, so the per-share bounds are
		// summed per name.
		total := 0
		for _, s := range d {
			total += s.Weight
		}
		lo, hi, got := map[string]int{}, map[string]int{}, map[string]int{}
		for _, s := range d {
			q, r := n*s.Weight/total, n*s.Weight%total
			lo[s.Name] += q
			hi[s.Name] += q
			if r != 0 {
				hi[s.Name]++
			}
		}
		for _, m := range ms {
			got[m.Name]++
		}
		for name, c := range got {
			if c < lo[name] || c > hi[name] {
				t.Fatalf("%q, n=%d: %s got %d servers, want within [%d, %d]", canon, n, name, c, lo[name], hi[name])
			}
		}
	})
}
